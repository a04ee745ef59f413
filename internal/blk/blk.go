// Package blk implements a remote block-storage domain on top of
// MultiEdge, the third application domain of the paper's §1 thesis
// (one edge-based interconnect serving all cluster communication:
// shared memory, message passing, and storage).
//
// The design is the classic one-sided RDMA storage model. A volume is
// a contiguous region of its host node's MultiEdge-addressable memory;
// the host is completely passive — clients read blocks with remote
// reads and write them with remote writes, and the only CPU the host
// spends is the per-frame protocol work it would spend for any peer.
//
// Write durability ordering uses the paper's fence primitive instead
// of a server round trip: every client owns a commit record on the
// volume, and each write is published by rewriting that record with a
// forward-fenced (FenceBefore) operation. MultiEdge guarantees a
// fenced operation is performed at the receiver only after every
// operation issued before it, so no observer — not even one reading
// over a different connection — can see a commit record that precedes
// its data, under any striping, reordering or loss-repair schedule.
// Commits carry the Solicit flag, so write completion takes one round
// trip instead of an AckDelay (the delayed-ACK policy is tuned for
// streaming, not queue-depth-1 commits).
package blk

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"multiedge/internal/cluster"
	"multiedge/internal/core"
	"multiedge/internal/frame"
	"multiedge/internal/obs"
	"multiedge/internal/sim"
)

// CommitRecordSize is the on-volume footprint of one client's commit
// record: a 64-bit sequence number and the 64-bit block index it last
// wrote.
const CommitRecordSize = 16

// Volume describes a block device served from one node's memory.
type Volume struct {
	Host      int // node serving the volume
	Blocks    int
	BlockSize int

	base    uint64 // first data byte on the host
	commits uint64 // base of the per-client commit-record array
	clients int
}

// Bytes returns the volume's data capacity.
func (v *Volume) Bytes() int { return v.Blocks * v.BlockSize }

// NewVolume carves a volume out of the host node's endpoint memory and
// returns its descriptor. maxClients commit records are reserved after
// the data region. The descriptor is plain data; hand it (out of band,
// like a mount) to clients on other nodes.
func NewVolume(cl *cluster.Cluster, host, blocks, blockSize, maxClients int) *Volume {
	if blocks <= 0 || blockSize <= 0 {
		panic("blk: volume needs positive geometry")
	}
	ep := cl.Nodes[host].EP
	base := ep.Alloc(blocks*blockSize + maxClients*CommitRecordSize)
	return &Volume{
		Host: host, Blocks: blocks, BlockSize: blockSize,
		base: base, commits: base + uint64(blocks*blockSize), clients: maxClients,
	}
}

// HostMem exposes the raw volume bytes on the host (for tests and for
// host-side recovery scans). Index is volume-relative.
func (v *Volume) HostMem(cl *cluster.Cluster) []byte {
	m := cl.Nodes[v.Host].EP.Mem()
	return m[v.base : v.base+uint64(v.Bytes()+v.clients*CommitRecordSize)]
}

// Stats counts a client's I/O activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	BytesRead  uint64
	BytesWrite uint64
	Commits    uint64
}

// Client is one node's handle on a volume: a connection to the host
// plus a registered staging buffer and this client's commit slot.
type Client struct {
	v     *Volume
	c     *core.Conn
	ep    *core.Endpoint
	id    int    // commit-slot index
	seq   uint64 // last committed sequence number
	stage uint64 // staging buffer (one block) in local memory
	rec   uint64 // local shadow of the commit record
	Stats Stats
}

// Open attaches to a volume over an established connection to its
// host. id must be unique per client (it indexes the commit-record
// array) and below the volume's maxClients.
func Open(cl *cluster.Cluster, v *Volume, node int, conn *core.Conn, id int) *Client {
	if conn == nil || conn.RemoteNode() != v.Host {
		panic("blk: Open needs a connection to the volume host")
	}
	if id < 0 || id >= v.clients {
		panic(fmt.Sprintf("blk: client id %d out of range [0,%d)", id, v.clients))
	}
	ep := cl.Nodes[node].EP
	c := &Client{
		v: v, c: conn, ep: ep, id: id,
		stage: ep.Alloc(v.BlockSize),
		rec:   ep.Alloc(CommitRecordSize),
	}
	if r := ep.Obs(); r != nil {
		labels := []obs.Label{obs.NodeLabel(node), obs.L("client", strconv.Itoa(id))}
		r.AddCollector(func(emit func(obs.Sample)) {
			cnt := func(name string, v uint64) {
				emit(obs.Sample{Name: name, Labels: labels, Value: float64(v), Type: obs.TypeCounter})
			}
			cnt("blk_reads_total", c.Stats.Reads)
			cnt("blk_writes_total", c.Stats.Writes)
			cnt("blk_bytes_read_total", c.Stats.BytesRead)
			cnt("blk_bytes_write_total", c.Stats.BytesWrite)
			cnt("blk_commits_total", c.Stats.Commits)
		})
	}
	return c
}

func (c *Client) blockAddr(block int) uint64 {
	if block < 0 || block >= c.v.Blocks {
		panic(fmt.Sprintf("blk: block %d out of range [0,%d)", block, c.v.Blocks))
	}
	return c.v.base + uint64(block)*uint64(c.v.BlockSize)
}

// Read fetches one block into buf (len >= BlockSize) with a single
// remote read. The host CPU is not involved beyond protocol work. A
// failed read returns its error and leaves buf as it was.
func (c *Client) Read(p *sim.Proc, block int, buf []byte) error {
	sp := c.ep.Obs().StartLayerSpan(c.ep.Node(), "blk", "block-read", c.v.BlockSize)
	err := c.c.Run(p, c.readOp(block))
	if err == nil {
		copy(buf, c.Stage())
		c.Stats.Reads++
		c.Stats.BytesRead += uint64(c.v.BlockSize)
	}
	sp.EndAt(c.ep.Env().Now())
	return err
}

func (c *Client) readOp(block int) core.Op {
	return core.Op{Remote: c.blockAddr(block), Local: c.stage, Size: c.v.BlockSize, Kind: frame.OpRead}
}

// ReadAsync starts a one-block read into the client's staging buffer
// and returns its handle; the data is valid in Stage() after the handle
// fires with no error. A read the connection cannot start returns its
// error instead. Only one async read may be outstanding per client (one
// staging buffer) — use plain RDMA for deeper pipelines.
func (c *Client) ReadAsync(p *sim.Proc, block int) (*core.Handle, error) {
	return c.c.Do(p, c.readOp(block))
}

// Stage exposes the staging buffer contents (after ReadAsync + Wait).
func (c *Client) Stage() []byte {
	return c.ep.Mem()[c.stage : c.stage+uint64(c.v.BlockSize)]
}

// putCommit encodes a commit record {seq, block}.
func putCommit(b []byte, seq uint64, block int) {
	binary.LittleEndian.PutUint64(b, seq)
	binary.LittleEndian.PutUint64(b[8:], uint64(block))
}

// Write stores one block (len(data) <= BlockSize; short writes pad the
// block tail with what the staging buffer last held) and publishes it:
// the commit record {seq, block} is rewritten with a forward-fenced
// operation, so the record can never be observed ahead of the data.
// Write returns once both operations are acknowledged end-to-end, or
// with the error that ended them: then the write may or may not have
// been published.
func (c *Client) Write(p *sim.Proc, block int, data []byte) error {
	sp := c.ep.Obs().StartLayerSpan(c.ep.Node(), "blk", "block-commit", len(data))
	commit, err := c.stageWrite(p, block, data)
	if err == nil {
		err = c.c.Run(p, commit)
	}
	sp.EndAt(c.ep.Env().Now())
	return err
}

// stageWrite copies data into the staging buffer, issues the block's
// write and returns the fenced, solicited commit that publishes it.
func (c *Client) stageWrite(p *sim.Proc, block int, data []byte) (core.Op, error) {
	mem := c.ep.Mem()
	copy(mem[c.stage:c.stage+uint64(c.v.BlockSize)], data)
	if _, err := c.c.Do(p, core.Op{Remote: c.blockAddr(block), Local: c.stage, Size: c.v.BlockSize, Kind: frame.OpWrite}); err != nil {
		return core.Op{}, err
	}
	c.seq++
	putCommit(mem[c.rec:], c.seq, block)
	c.Stats.Writes++
	c.Stats.Commits++
	c.Stats.BytesWrite += uint64(c.v.BlockSize)
	return core.Op{
		Remote: c.commitAddr(), Local: c.rec, Size: CommitRecordSize,
		Kind: frame.OpWrite, Flags: frame.FenceBefore | frame.Solicit,
	}, nil
}

func (c *Client) commitAddr() uint64 {
	return c.v.commits + uint64(c.id)*CommitRecordSize
}

// ReadCommit fetches another client's commit record (for recovery and
// for the ordering tests): the returned seq/block pair is the last
// write that client published. A failed read returns its error and
// no record.
func (c *Client) ReadCommit(p *sim.Proc, id int) (seq uint64, block int, err error) {
	addr := c.v.commits + uint64(id)*CommitRecordSize
	if err := c.c.Run(p, core.Op{Remote: addr, Local: c.rec, Size: CommitRecordSize, Kind: frame.OpRead}); err != nil {
		return 0, 0, err
	}
	mem := c.ep.Mem()
	return binary.LittleEndian.Uint64(mem[c.rec:]),
		int(binary.LittleEndian.Uint64(mem[c.rec+8:])), nil
}

// Seq returns the client's last published sequence number.
func (c *Client) Seq() uint64 { return c.seq }

// Flush issues a fully fenced zero-size write: when it returns nil,
// every operation this client issued before it has been performed at
// the host and acknowledged. An error means that nothing is known of
// them.
func (c *Client) Flush(p *sim.Proc) error {
	return c.c.Run(p, core.Op{
		Remote: c.commitAddr(), Local: c.rec, Kind: frame.OpWrite,
		Flags: frame.FenceBefore | frame.FenceAfter | frame.Solicit,
	})
}
