package bench

import (
	"fmt"
	"strings"

	"multiedge/internal/blk"
	"multiedge/internal/cluster"
	"multiedge/internal/sim"
)

// BlkResult is one block-storage measurement point.
type BlkResult struct {
	Config     string
	Clients    int
	BlockSize  int
	ReadIOPS   float64
	WriteIOPS  float64
	ReadLatUs  float64 // mean per-op latency, one outstanding op
	WriteLatUs float64
	HostCPU    float64 // host protocol CPU fraction (of 100%)
}

// RunBlk measures 4 KiB-class random I/O against a passive volume on
// node 0: each client does ios reads then ios fenced writes over its
// own extent, one operation outstanding (latency-bound, like a simple
// block-layer queue depth of 1).
func RunBlk(cfg cluster.Config, clients, blockSize, ios int) BlkResult {
	const blocks = 4096
	cfg.Nodes = clients + 1
	cfg.Core.MemBytes = blocks*blockSize + (8 << 20)
	cl := cluster.New(cfg)
	defer cl.Close()
	conns := cl.FullMesh()
	v := blk.NewVolume(cl, 0, blocks, blockSize, clients)

	hostProto := cl.Nodes[0].CPUs.Proto.Snapshot(cl.Env)
	var readTime, writeTime sim.Time
	var start, end sim.Time
	start = cl.Env.Now()
	done := 0
	for i := 0; i < clients; i++ {
		i := i
		cli := blk.Open(cl, v, i+1, conns[i+1][0], i)
		cl.Env.Go(fmt.Sprintf("blk%d", i), func(p *sim.Proc) {
			base := i * (blocks / clients)
			buf := make([]byte, blockSize)
			t0 := cl.Env.Now()
			for n := 0; n < ios; n++ {
				if err := cli.Write(p, base+(n*37)%(blocks/clients), buf); err != nil {
					panic(err)
				}
			}
			writeTime += cl.Env.Now() - t0
			t0 = cl.Env.Now()
			for n := 0; n < ios; n++ {
				if err := cli.Read(p, base+(n*37)%(blocks/clients), buf); err != nil {
					panic(err)
				}
			}
			readTime += cl.Env.Now() - t0
			done++
			if t := cl.Env.Now(); t > end {
				end = t
			}
		})
	}
	cl.Env.RunUntil(600 * sim.Second)
	if done != clients {
		panic(fmt.Sprintf("blk bench: %d/%d clients finished", done, clients))
	}
	totalOps := float64(clients * ios)
	r := BlkResult{Config: cfg.Name, Clients: clients, BlockSize: blockSize}
	if end > start {
		r.ReadIOPS = totalOps / (readTime.Seconds() / float64(clients))
		r.WriteIOPS = totalOps / (writeTime.Seconds() / float64(clients))
		r.ReadLatUs = readTime.Micros() / totalOps
		r.WriteLatUs = writeTime.Micros() / totalOps
		r.HostCPU = hostProto.Since(cl.Env, cl.Nodes[0].CPUs.Proto) * 100
	}
	return r
}

// RenderBlockStore renders the storage-domain benchmark: per-config
// single-client latency/IOPS, then client scaling on the dual-rail
// configuration (the passive host's protocol CPU is the eventual
// bottleneck, not its application CPU — it runs none).
func RenderBlockStore(ios int) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Block storage domain: 4 KiB random I/O, passive host, queue depth 1")
	fmt.Fprintln(&b, "\nsingle client")
	fmt.Fprintf(&b, "  %-8s %10s %10s %12s %12s %10s\n",
		"config", "read IOPS", "writ IOPS", "read lat", "write lat", "host CPU")
	for _, cfg := range []cluster.Config{
		cluster.OneLink1G(0), cluster.TwoLinkUnordered1G(0), cluster.OneLink10G(0),
	} {
		r := RunBlk(cfg, 1, 4096, ios)
		fmt.Fprintf(&b, "  %-8s %10.0f %10.0f %10.1fus %10.1fus %9.1f%%\n",
			r.Config, r.ReadIOPS, r.WriteIOPS, r.ReadLatUs, r.WriteLatUs, r.HostCPU)
	}
	fmt.Fprintln(&b, "\nclient scaling (2Lu-1G, aggregate)")
	for _, n := range []int{1, 2, 4, 8} {
		r := RunBlk(cluster.TwoLinkUnordered1G(0), n, 4096, ios)
		fmt.Fprintf(&b, "  %d client(s): %8.0f read IOPS  %8.0f write IOPS   host proto CPU %5.1f%%\n",
			n, r.ReadIOPS, r.WriteIOPS, r.HostCPU)
	}
	// Block-size sweep: storage amortizes per-op costs exactly like the
	// paper's Figure 2 throughput curves amortize per-frame costs.
	fmt.Fprintln(&b, "\nblock-size sweep (1L-1G, single client)")
	for _, bs := range []int{512, 4096, 65536} {
		r := RunBlk(cluster.OneLink1G(0), 1, bs, ios)
		mbs := r.ReadIOPS * float64(bs) / 1e6
		fmt.Fprintf(&b, "  %6d B: read %8.0f IOPS = %6.1f MB/s   write lat %7.1fus\n",
			bs, r.ReadIOPS, mbs, r.WriteLatUs)
	}
	return b.String()
}
