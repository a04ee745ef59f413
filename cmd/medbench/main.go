// Command medbench runs the MultiEdge micro-benchmarks of IPPS'07
// Figure 2 (ping-pong, one-way, two-way over the four cluster
// configurations), the §4 network-level statistics, and the design
// ablations.
//
// Usage:
//
//	medbench -fig 2a        # latency panel
//	medbench -fig 2b        # throughput panel
//	medbench -fig 2c        # CPU utilization panel
//	medbench -netstats      # out-of-order / extra-traffic statistics
//	medbench -ablate        # striping, ARQ, window and delayed-ack sweeps
//	medbench -smallops      # eager vs submission-queue small-op rate
//	medbench -chaos         # randomized fault-injection soaks, per-seed report
//	medbench -one ping-pong -config 1L-10G -size 65536
//	medbench -one ping-pong -spans -obs-out /tmp/spans.json
//	medbench -fanin -metrics -obs-out /tmp/fanin.json -bench-out /tmp
//	medbench -crashloop -health-every-ms 50 -obs-out /tmp/health.json
//	medbench -serve -serve-clients 1024 -bench-out /tmp
//	medbench -incast -bench-out /tmp
//
// Instrumentation composition matrix:
//
//	flag            -one  -fanin  -crashloop  -serve  -chaos  -smallops  others
//	-trace          yes   no      no          no      no      no         no
//	-metrics        yes   yes     yes         yes     yes     no         no
//	-spans          yes   yes     yes         yes     yes     no         no
//	-health-every-ms yes  yes     yes         yes     yes     no         no
//	-bench-out      yes   yes     yes         yes     yes     yes        no
//
// -trace and -metrics/-spans stay mutually exclusive (pick one
// instrumentation). -metrics/-spans/-health-every-ms need -obs-out
// PATH; -spans writes Chrome trace JSON there, -metrics adds a JSON
// snapshot plus a .prom sidecar, -health-every-ms adds a
// .health.json timeline. Sweeps (-fanin/-crashloop) export the last
// run's registry. -bench-out writes a schema-versioned
// BENCH_<mode>.json perf-trajectory document (see medtables
// -bench-compare); pass a directory for the default file name or a
// .json path to name it exactly. The flight recorder needs no flag: it
// is always on in the stress harnesses (-fanin/-crashloop/-chaos), and
// a failed gate or invariant prints its post-mortem timeline and, with
// -obs-out, writes <obs-out>.postmortem.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"multiedge/internal/bench"
	"multiedge/internal/chaos"
	"multiedge/internal/cluster"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

func main() {
	fig := flag.String("fig", "", "figure panel to regenerate: 2a, 2b or 2c")
	netstats := flag.Bool("netstats", false, "print network-level statistics")
	ablate := flag.Bool("ablate", false, "run design ablations")
	msgFlag := flag.Bool("msg", false, "run the message-passing layer benchmarks")
	dsmFlag := flag.Bool("dsm", false, "run the DSM primitive benchmarks")
	tcpFlag := flag.Bool("tcp", false, "compare MultiEdge against the TCP-like baseline")
	blkFlag := flag.Bool("blk", false, "run the block-storage domain benchmarks")
	latFlag := flag.Bool("lat", false, "print round-trip latency percentile tables")
	smallops := flag.Bool("smallops", false, "compare eager vs submission-queue small-operation throughput")
	chaosFlag := flag.Bool("chaos", false, "run randomized chaos soaks across the cluster configurations")
	chaosSeeds := flag.Int("chaos-seeds", 4, "seeds per configuration for -chaos")
	faninFlag := flag.Bool("fanin", false, "run the many-connection fan-in scaling sweep (exits 1 on data corruption or post-close leaks)")
	faninConns := flag.String("fanin-conns", "1,16,64,256,512", "comma-separated connection counts for -fanin")
	faninOps := flag.Int("fanin-ops", 24, "closed-loop operations per connection for -fanin")
	faninChaos := flag.Bool("fanin-chaos", false, "with -fanin: inject loss/duplication bursts mid-run")
	serveFlag := flag.Bool("serve", false, "run the replicated-service closed-loop bench: baseline plus a chaos backend-kill run (exits 1 on corruption, leaks, or unbounded failover tail)")
	serveClients := flag.Int("serve-clients", 1024, "simulated client sessions for -serve")
	serveOps := flag.Int("serve-ops", 4, "closed-loop writes per session for -serve")
	serveSize := flag.Int("serve-size", 2048, "bytes per operation for -serve")
	serveReplicas := flag.Int("serve-replicas", 3, "backend replicas for -serve")
	incastFlag := flag.Bool("incast", false, "run the incast-collapse bench: 64->1 burst with congestion control off then on, plus the parking-lot adaptive-striping comparison (exits 1 if CC misses the fairness/goodput gates or adaptive striping fails to beat round-robin)")
	incastSenders := flag.Int("incast-senders", 64, "concurrent senders for -incast")
	noisyFlag := flag.Bool("noisy", false, "run the noisy-neighbor QoS isolation bench: victim alone, victim+flood with QoS off, victim+flood with QoS on (exits 1 if the QoS-on victim p99 exceeds 3x its isolated baseline)")
	noisyOps := flag.Int("noisy-ops", 400, "closed-loop victim operations per phase for -noisy")
	noisyChaos := flag.Bool("noisy-chaos", false, "with -noisy: inject a loss burst mid-run")
	crashloop := flag.Bool("crashloop", false, "run the crash-restart recovery sweep (exits 1 on corruption, unrecovered cycles, or post-close leaks)")
	crashCycles := flag.Int("crashloop-cycles", 5, "crash-restart cycles per setting for -crashloop")
	crashDownMs := flag.Int("crashloop-down-ms", 150, "node downtime per cycle in milliseconds for -crashloop")
	one := flag.String("one", "", "run a single micro-benchmark: ping-pong, one-way or two-way")
	config := flag.String("config", "1L-1G", "configuration for -one: 1L-1G, 2L-1G, 2Lu-1G or 1L-10G")
	size := flag.Int("size", 65536, "transfer size in bytes for -one / -netstats / -ablate")
	quick := flag.Bool("quick", false, "sweep fewer sizes")
	doTrace := flag.Bool("trace", false, "only with -one (not -netstats/-ablate/-fig): print a frame-level trace summary and timeline; mutually exclusive with -metrics/-spans")
	metrics := flag.Bool("metrics", false, "with -one/-fanin/-crashloop/-chaos: collect the unified metrics registry and export it via -obs-out")
	spans := flag.Bool("spans", false, "with -one/-fanin/-crashloop/-chaos: record causal operation spans and export a Chrome trace (Perfetto) via -obs-out")
	obsOut := flag.String("obs-out", "", "output path for -metrics/-spans/-health-every-ms exports (-spans writes Chrome trace JSON here; -metrics writes the JSON snapshot plus a .prom sidecar; -health-every-ms writes a .health.json timeline)")
	healthEveryMs := flag.Int("health-every-ms", 0, "with -one/-fanin/-crashloop/-chaos: sample per-endpoint health snapshots every N virtual milliseconds into <obs-out>.health.json")
	benchOut := flag.String("bench-out", "", "with -one/-smallops/-fanin/-crashloop/-chaos: write a BENCH_<mode>.json perf-trajectory document (directory or .json path)")
	flag.Parse()

	healthEvery := sim.Time(*healthEveryMs) * sim.Millisecond
	obsOn := *metrics || *spans || *obsOut != "" || healthEvery > 0
	obsComposes := *one != "" || *faninFlag || *crashloop || *chaosFlag || *serveFlag || *noisyFlag || *incastFlag
	if *doTrace && *one == "" {
		fmt.Fprintln(os.Stderr, "medbench: -trace only composes with -one; it does not apply to -netstats, -ablate or the figure sweeps")
		os.Exit(2)
	}
	if obsOn {
		switch {
		case !obsComposes:
			fmt.Fprintln(os.Stderr, "medbench: -metrics/-spans/-health-every-ms/-obs-out only compose with -one, -fanin, -crashloop, -serve, -noisy, -incast or -chaos")
			os.Exit(2)
		case *doTrace:
			fmt.Fprintln(os.Stderr, "medbench: -trace and -metrics/-spans are mutually exclusive; pick one instrumentation")
			os.Exit(2)
		case !*metrics && !*spans && healthEvery == 0:
			fmt.Fprintln(os.Stderr, "medbench: -obs-out needs -metrics, -spans and/or -health-every-ms")
			os.Exit(2)
		case *obsOut == "":
			fmt.Fprintln(os.Stderr, "medbench: -metrics/-spans/-health-every-ms need -obs-out PATH")
			os.Exit(2)
		}
	}
	if *benchOut != "" && !(*one != "" || *smallops || *faninFlag || *crashloop || *chaosFlag || *serveFlag || *noisyFlag || *incastFlag) {
		fmt.Fprintln(os.Stderr, "medbench: -bench-out only composes with -one, -smallops, -fanin, -crashloop, -serve, -noisy, -incast or -chaos")
		os.Exit(2)
	}

	obsOpts := cluster.ObsOptions{Metrics: *metrics, Spans: *spans, HealthEvery: healthEvery}

	// exportObs writes the registry (and health timeline) per -obs-out.
	exportObs := func(r *obs.Registry) {
		if !obsOn || r == nil {
			return
		}
		var files []string
		if *metrics || *spans {
			fs, err := r.WriteFiles(*obsOut, *metrics, *spans)
			if err != nil {
				fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
				os.Exit(1)
			}
			files = fs
		}
		if healthEvery > 0 {
			hp := *obsOut + ".health.json"
			if !*metrics && !*spans {
				hp = *obsOut
			}
			if err := obs.WriteDoc(hp, obs.HealthTimelineJSON(r.HealthLogs())); err != nil {
				fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
				os.Exit(1)
			}
			files = append(files, hp)
		}
		if len(files) > 0 {
			fmt.Printf("  obs: wrote %s\n", strings.Join(files, " "))
		}
	}
	// exportDump writes a post-mortem (gate/invariant failure) next to
	// the obs exports, if a destination exists.
	exportDump := func(d *obs.PostMortem) {
		if d == nil || *obsOut == "" {
			return
		}
		p := *obsOut + ".postmortem.json"
		if err := obs.WriteDoc(p, d.JSON()); err != nil {
			fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  obs: wrote %s\n", p)
	}
	// writeBench serializes the perf-trajectory document per -bench-out.
	writeBench := func(d *bench.BenchDoc) {
		if *benchOut == "" {
			return
		}
		path := *benchOut
		if st, err := os.Stat(path); (err == nil && st.IsDir()) || strings.HasSuffix(path, string(os.PathSeparator)) {
			path = filepath.Join(path, "BENCH_"+d.Mode+".json")
		} else if !strings.HasSuffix(path, ".json") {
			path += ".json"
		}
		if err := d.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "medbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  bench: wrote %s\n", path)
	}
	// allocsPerOp stamps the advisory wall-side allocation figure on
	// every row: allocations during the run divided by total ops.
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	stampAllocs := func(d *bench.BenchDoc) *bench.BenchDoc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		total := 0
		for _, r := range d.Rows {
			total += r.Ops
		}
		if total > 0 {
			apo := float64(after.Mallocs-memBefore.Mallocs) / float64(total)
			for i := range d.Rows {
				d.Rows[i].AllocsPerOp = apo
			}
		}
		return d
	}

	// stress is the one epilogue of the stress modes: print the report,
	// write the bench document, export the last run's registry and every
	// post-mortem, and exit 1 on a failed gate.
	stress := func(mode string, rep bench.Report) {
		fmt.Print(rep.Text)
		doc := bench.NewBenchDoc(mode)
		doc.Rows = rep.Rows
		writeBench(stampAllocs(doc))
		var last *obs.Registry
		for _, o := range rep.Outcomes {
			if o.Obs != nil {
				last = o.Obs
			}
		}
		exportObs(last)
		for _, o := range rep.Outcomes {
			exportDump(o.Dump)
		}
		if !rep.OK {
			os.Exit(1)
		}
	}

	sizes := bench.Sizes
	if *quick {
		sizes = []int{4, 1024, 16384, 262144, 1048576}
	}
	switch {
	case *fig == "2a" || *fig == "2b" || *fig == "2c":
		fmt.Print(bench.RenderFig2((*fig)[1:], sizes))
	case *netstats:
		fmt.Print(bench.RenderNetStats(*size))
	case *msgFlag:
		fmt.Print(bench.RenderMessaging())
	case *dsmFlag:
		fmt.Print(bench.RenderDSM())
	case *tcpFlag:
		fmt.Print(bench.RenderTransportComparison())
	case *blkFlag:
		ios := 300
		if *quick {
			ios = 100
		}
		fmt.Print(bench.RenderBlockStore(ios))
	case *latFlag:
		count := 2000
		if *quick {
			count = 400
		}
		fmt.Print(bench.RenderLatencyDist(count))
	case *smallops:
		count := 16384
		if *quick {
			count = 2048
		}
		out, results := bench.RenderSmallOps(count)
		fmt.Print(out)
		doc := bench.NewBenchDoc("smallops")
		for _, r := range results {
			doc.Rows = append(doc.Rows, r.BenchRow())
		}
		writeBench(stampAllocs(doc))
	case *faninFlag:
		counts, err := parseConns(*faninConns)
		if err != nil {
			fmt.Fprintf(os.Stderr, "medbench: -fanin-conns: %v\n", err)
			os.Exit(2)
		}
		if *quick {
			max := 64
			trimmed := counts[:0]
			for _, n := range counts {
				if n <= max {
					trimmed = append(trimmed, n)
				}
			}
			counts = trimmed
		}
		stress("fanin", bench.RenderFanin(counts, *faninOps, 256, *faninChaos, obsOpts))
	case *serveFlag:
		clients := *serveClients
		if *quick {
			clients = 256
		}
		stress("serve", bench.RenderServe(clients, *serveOps, *serveSize, *serveReplicas, obsOpts))
	case *incastFlag:
		senders := *incastSenders
		dur := 80 * sim.Millisecond
		if *quick {
			senders = 32
			dur = 40 * sim.Millisecond
		}
		stress("incast", bench.RenderIncast(senders, 8<<10, dur, obsOpts))
	case *noisyFlag:
		ops := *noisyOps
		if *quick {
			ops = 150
		}
		stress("noisy", bench.RenderNoisy(ops, *noisyChaos, obsOpts))
	case *crashloop:
		cycles := *crashCycles
		if *quick {
			cycles = 2
		}
		stress("crashloop", bench.RenderCrashloop(cycles, sim.Time(*crashDownMs)*sim.Millisecond, 256<<10, obsOpts))
	case *chaosFlag:
		transfers := 30
		if *quick {
			transfers = 10
		}
		// Per-tick samplers over a 60 s virtual horizon would record
		// hundreds of thousands of points per series; gather-time
		// collectors and health sampling remain.
		chaosObs := obsOpts
		if chaosObs.SampleEvery == 0 {
			chaosObs.SampleEvery = -1
		}
		out, rows, art := renderChaos(*chaosSeeds, transfers, chaosObs)
		fmt.Print(out)
		doc := bench.NewBenchDoc("chaos")
		doc.Rows = rows
		writeBench(stampAllocs(doc))
		if art != nil {
			exportObs(art.Obs)
			exportDump(art.Dump)
		}
	case *ablate:
		fmt.Print(bench.RenderAblation(*size))
	case *one != "":
		cfg, ok := configByName(*config)
		if !ok {
			fmt.Fprintf(os.Stderr, "medbench: unknown configuration %q\n", *config)
			os.Exit(2)
		}
		if *doTrace {
			fmt.Print(bench.RunTracedOneWay(cfg, *size))
			return
		}
		cfg.Obs = obsOpts
		r := bench.RunMicro(*one, cfg, *size)
		fmt.Println(r.String())
		fmt.Printf("  net: ooo %.1f%%  extra %.2f%%  acks %d  nacks %d  retrans %d\n",
			r.Net.Proto.OOOFraction()*100, r.Net.Proto.ExtraTrafficFraction()*100,
			r.Net.Proto.CtrlAcksSent, r.Net.Proto.CtrlNacksSent, r.Net.Proto.Retransmissions)
		exportObs(r.Obs)
		doc := bench.NewBenchDoc("one")
		doc.Rows = append(doc.Rows, r.BenchRow())
		writeBench(doc)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// renderChaos runs the standard flap-heavy randomized soak (24 faults
// in the first 3 s, outages capped at 500 ms, DeadInterval 5 s, adaptive
// RTO on) for `seeds` seeds per configuration and reports each run. It
// returns the per-run bench rows and the observability artifacts: the
// last run's registry plus the first post-mortem dump any violating run
// produced (its timeline is also embedded in the report).
func renderChaos(seeds, transfers int, obsOpts cluster.ObsOptions) (string, []bench.BenchRow, *chaos.Artifacts) {
	var b strings.Builder
	var rows []bench.BenchRow
	var lastArt, dumpArt *chaos.Artifacts
	fmt.Fprintf(&b, "Chaos soak: %d transfers x 32 KiB under 24 randomized faults "+
		"(flap/loss/corrupt/reorder/dup), outages <= 500 ms, DeadInterval 5 s\n\n", transfers)
	fmt.Fprintf(&b, "%-7s %5s  %9s %7s %8s %8s %9s %10s  %s\n",
		"config", "seed", "completed", "dataOK", "retrans", "rtoExp", "dupDrops", "failDrops", "violations")
	for _, cfg := range bench.Configs() {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			soak := cfg
			soak.Core.DeadInterval = 5 * sim.Second
			soak.Core.RTOMax = 100 * sim.Millisecond
			soak.Obs = obsOpts
			res, vs, art := chaos.Run(chaos.Options{
				Config:    soak,
				Seed:      seed,
				Transfers: transfers,
				Bytes:     32 << 10,
				Gap:       100 * sim.Millisecond,
				Horizon:   60 * sim.Second,
				Script: func(r *chaos.Runner) {
					r.Randomize(chaos.RandomizeOptions{
						From:      sim.Millisecond,
						To:        3 * sim.Second,
						Events:    24,
						MaxOutage: 500 * sim.Millisecond,
					})
				},
			})
			lastArt = art
			viol := "none"
			if len(vs) > 0 {
				viol = vs[0].String()
				if len(vs) > 1 {
					viol = fmt.Sprintf("%s (+%d more)", viol, len(vs)-1)
				}
				if art.Dump != nil {
					if dumpArt == nil {
						dumpArt = art
					}
					b.WriteString("\n" + art.Dump.Timeline() + "\n")
				}
			}
			fmt.Fprintf(&b, "%-7s %5d  %5d/%-3d %7v %8d %8d %9d %10d  %s\n",
				cfg.Name, seed, res.Completed, transfers, res.DataOK,
				res.Report.Proto.Retransmissions, res.Report.Proto.RtoExpiries,
				res.Report.Proto.DupFramesDropped, res.Report.LinkFailDrops, viol)
			row := bench.BenchRow{
				Name: fmt.Sprintf("chaos-%s-s%d", cfg.Name, seed),
				Ops:  res.Completed,
				Extra: map[string]float64{
					"violations": float64(len(vs)),
					"retrans":    float64(res.Report.Proto.Retransmissions),
					"rto_exp":    float64(res.Report.Proto.RtoExpiries),
				},
			}
			if res.EndedAt > 0 {
				row.OpsPerSec = float64(res.Completed) / res.EndedAt.Seconds()
				row.GoodputMBs = float64(res.Completed*(32<<10)) / 1e6 / res.EndedAt.Seconds()
			}
			rows = append(rows, row)
		}
	}
	if dumpArt != nil {
		lastArt = dumpArt
	}
	return b.String(), rows, lastArt
}

// parseConns parses the -fanin-conns list.
func parseConns(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad connection count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func configByName(name string) (cluster.Config, bool) {
	for _, cfg := range bench.Configs() {
		if cfg.Name == name {
			return cfg, true
		}
	}
	return cluster.Config{}, false
}
