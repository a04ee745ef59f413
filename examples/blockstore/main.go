// Blockstore: the third application domain of the paper's §1 thesis —
// remote block storage over the same edge-based transport that serves
// shared memory and message passing. The volume's host is completely
// passive (one-sided RDMA I/O); writes are published with a
// forward-fenced commit record, so no observer can ever see a commit
// that precedes its data, even with frames striped across two
// unordered rails.
package main

import (
	"bytes"
	"fmt"

	"multiedge"
)

const (
	clients   = 3
	blockSize = 4096
	blocks    = 4096 // 16 MiB volume
	iosEach   = 400
)

func main() {
	cfg := multiedge.TwoLinkUnordered1G(clients + 1)
	cfg.Core.MemBytes = blocks*blockSize + (8 << 20)
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	conns := cl.FullMesh()

	vol := multiedge.NewVolume(cl, 0, blocks, blockSize, clients)
	fmt.Printf("volume: %d x %d B = %d MiB on node 0 (passive host)\n",
		blocks, blockSize, vol.Bytes()>>20)

	var start, end multiedge.Time
	start = cl.Env.Now()
	done := 0
	cls := make([]*multiedge.BlkClient, clients)
	for i := 0; i < clients; i++ {
		i := i
		cli := multiedge.OpenVolume(cl, vol, i+1, conns[i+1][0], i)
		cls[i] = cli
		cl.Env.Go(fmt.Sprintf("client%d", i), func(p *multiedge.Proc) {
			// Each client owns a contiguous extent; a write-heavy pass
			// then a read-back verification pass.
			base := i * (blocks / clients)
			buf := make([]byte, blockSize)
			for n := 0; n < iosEach; n++ {
				b := base + (n*37)%(blocks/clients)
				for j := range buf {
					buf[j] = byte(b + j + i)
				}
				if err := cli.Write(p, b, buf); err != nil {
					fmt.Printf("client %d: block %d: %v\n", i, b, err)
					return
				}
			}
			got := make([]byte, blockSize)
			for n := 0; n < iosEach; n++ {
				b := base + (n*37)%(blocks/clients)
				if err := cli.Read(p, b, got); err != nil {
					fmt.Printf("client %d: block %d: %v\n", i, b, err)
					return
				}
				for j := range buf {
					buf[j] = byte(b + j + i)
				}
				if !bytes.Equal(got, buf) {
					fmt.Printf("client %d: block %d CORRUPTED\n", i, b)
					return
				}
			}
			done++
			if t := cl.Env.Now(); t > end {
				end = t
			}
		})
	}
	cl.Env.Run()

	var reads, writes, rbytes, wbytes uint64
	for _, c := range cls {
		reads += c.Stats.Reads
		writes += c.Stats.Writes
		rbytes += c.Stats.BytesRead
		wbytes += c.Stats.BytesWrite
	}
	el := (end - start).Seconds()
	fmt.Printf("%d clients finished: %d writes + %d reads of %d B in %v\n",
		done, writes, reads, blockSize, end-start)
	fmt.Printf("aggregate: %.0f IOPS, %.1f MB/s (4K random, fenced commits)\n",
		float64(reads+writes)/el, float64(rbytes+wbytes)/1e6/el)

	fmt.Println()
	mirrorDemo()
}

// mirrorDemo mirrors a volume across two hosts, kills one host
// entirely, and shows deadline failover plus online rebuild.
func mirrorDemo() {
	cfg := multiedge.TwoLinkUnordered1G(3)
	cfg.Core.MemBytes = 16 << 20
	cl := multiedge.NewCluster(cfg)
	defer cl.Close()
	conns := cl.FullMesh()
	va := multiedge.NewVolume(cl, 0, 256, blockSize, 1)
	vb := multiedge.NewVolume(cl, 1, 256, blockSize, 1)
	m := multiedge.OpenMirror(
		multiedge.OpenVolume(cl, va, 2, conns[2][0], 0),
		multiedge.OpenVolume(cl, vb, 2, conns[2][1], 0))

	cl.Env.Go("io", func(p *multiedge.Proc) {
		buf := make([]byte, blockSize)
		for b := 0; b < 256; b++ {
			for j := range buf {
				buf[j] = byte(b + j)
			}
			if err := m.Write(p, b, buf); err != nil {
				fmt.Printf("mirror: block %d: %v\n", b, err)
				return
			}
		}
		fmt.Printf("[%v] mirror: 256 blocks on hosts 0+1\n", cl.Env.Now())

		cl.FailLink(0, 0)
		cl.FailLink(0, 1)
		fmt.Printf("[%v] host 0 down (all rails cut)\n", cl.Env.Now())
		got := make([]byte, blockSize)
		m.Read(p, 42, got)
		a, bDown := m.Down()
		fmt.Printf("[%v] read served after failover (legs down: %v,%v), %d failover(s)\n",
			cl.Env.Now(), a, bDown, m.Failovers)

		cl.RestoreLink(0, 0)
		cl.RestoreLink(0, 1)
		p.Sleep(20 * multiedge.Millisecond)
		if m.Rebuild(p) {
			fmt.Printf("[%v] host 0 repaired; rebuild copied %d blocks, mirror healthy\n",
				cl.Env.Now(), m.Rebuilt)
		}
	})
	cl.Env.RunUntil(30 * multiedge.Second)
}
