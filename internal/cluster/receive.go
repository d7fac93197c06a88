package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"aisebmt/internal/core"
	"aisebmt/internal/persist"
)

// serveRepl accepts replication streams from peers on the node's Repl
// listener. One goroutine per stream; the listener closing (node
// shutdown) ends the loop.
func (n *Node) serveRepl(ln net.Listener) {
	defer n.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		n.replConnMu.Lock()
		n.replConns[conn] = struct{}{}
		n.replConnMu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.handleRepl(conn)
			n.replConnMu.Lock()
			delete(n.replConns, conn)
			n.replConnMu.Unlock()
			conn.Close()
		}()
	}
}

// handleRepl serves one inbound connection on the repl port. The first
// frame picks the conversation: a view request (answered and done), a
// view push (applied, acked, done), a range-holding query (failover
// arbitration), or a hello opening a replication stream — handshake,
// baseline import, then segment application until the connection dies.
// Fencing is enforced at every stage — a deposed holder gets ackFenced,
// never an apply — and every view, baseline and segment is
// cryptographically verified before it touches anything.
func (n *Node) handleRepl(conn net.Conn) {
	bw, br := bufio.NewWriterSize(conn, 64<<10), bufio.NewReader(conn)
	reply := func(typ uint8, a ack) bool {
		conn.SetWriteDeadline(time.Now().Add(n.cfg.IOTimeout))
		if err := writeFrame(bw, typ, encodeAck(a)); err != nil {
			return false
		}
		return bw.Flush() == nil
	}

	conn.SetReadDeadline(time.Now().Add(n.cfg.IOTimeout))
	typ, p, err := readFrame(br)
	if err != nil {
		return
	}
	switch typ {
	case msgViewReq:
		conn.SetWriteDeadline(time.Now().Add(n.cfg.IOTimeout))
		if writeFrame(bw, msgView, encodeView(n.cfg.Key, n.curView())) == nil {
			bw.Flush()
		}
		return
	case msgView:
		v, verr := decodeView(n.cfg.Key, p)
		if verr != nil {
			n.met.viewRefused.Inc()
			reply(msgViewAck, ack{Code: ackError, Msg: verr.Error()})
			return
		}
		if verr = n.applyView(v); verr != nil {
			reply(msgViewAck, ack{Code: ackError, Msg: verr.Error()})
			return
		}
		reply(msgViewAck, ack{Code: ackOK})
		return
	case msgRangeReq:
		reply(msgRangeAck, ack{Code: ackOK, Msg: n.rangeStanding(string(p))})
		return
	case msgHello:
	default:
		return
	}

	h, err := decodeHello(p)
	if err != nil {
		return
	}
	view := n.curView()
	if view.isRemoved(h.ID) {
		n.met.fenceRej.Inc()
		reply(msgHelloAck, ack{Code: ackError, Msg: "removed member"})
		return
	}
	src, ok := n.membership().Member(h.ID)
	if !ok || src.ID == n.self.ID {
		reply(msgHelloAck, ack{Code: ackError, Msg: "unknown member"})
		return
	}
	rangeID := h.Range
	if rangeID == "" {
		rangeID = h.ID
	}
	if !lineageKnown(view, rangeID) {
		reply(msgHelloAck, ack{Code: ackError, Msg: "unknown range"})
		return
	}
	if int(h.Shards) != n.shards {
		reply(msgHelloAck, ack{Code: ackError, Msg: "shard count mismatch"})
		return
	}
	rejoin := rangeID == n.selfLineage
	if rejoin && h.Fence <= n.cfg.Store.Fence() {
		// Someone claims to replicate our own range without a fencing
		// epoch that supersedes ours: stale or forged. We still hold it.
		n.met.fenceRej.Inc()
		reply(msgHelloAck, ack{Code: ackFenced, Msg: n.self.ID})
		return
	}
	if holder, fenced := n.checkFence(rangeID, h.Fence); fenced {
		n.met.fenceRej.Inc()
		n.logf("cluster: refused handshake from %s for range %s (fence %d)", h.ID, rangeID, h.Fence)
		reply(msgHelloAck, ack{Code: ackFenced, Msg: holder})
		return
	}
	if rejoin {
		// A higher-fence stream for our own lineage is proof we were
		// deposed (promotion or handoff happened while we were away).
		// Attach as a follower of the new holder: fenced rejoin.
		n.becomeDeposed(h.ID)
	}
	if !reply(msgHelloAck, ack{Code: ackOK}) {
		return
	}

	// Baselines are big; give the transfer several IO windows.
	conn.SetReadDeadline(time.Now().Add(4 * n.cfg.IOTimeout))
	typ, p, err = readFrame(br)
	if err != nil || typ != msgBaseline {
		return
	}
	bl, err := persist.DecodeBaseline(n.cfg.Key, p)
	if err != nil {
		reply(msgBaselineAck, ack{Code: ackError, Msg: err.Error()})
		return
	}
	if holder, fenced := n.checkFence(rangeID, bl.Fence); fenced {
		n.met.fenceRej.Inc()
		reply(msgBaselineAck, ack{Code: ackFenced, Msg: holder})
		return
	}
	// Standby pools run without observability: instruments register once
	// per process, for the local pool.
	cfg := n.cfg.ShardCfg
	cfg.Obs = nil
	pool, curs, err := persist.ImportBaseline(n.cfg.Key, cfg, bl)
	if err != nil {
		n.logf("cluster: baseline for %s from %s rejected: %v", rangeID, h.ID, err)
		reply(msgBaselineAck, ack{Code: ackError, Msg: err.Error()})
		return
	}
	sb := &standby{owner: rangeID, src: h.ID, pool: pool, curs: curs, fence: bl.Fence, live: true}
	if !n.installStandby(sb) {
		pool.Close()
		n.met.fenceRej.Inc()
		reply(msgBaselineAck, ack{Code: ackFenced, Msg: n.holderOf(rangeID)})
		return
	}
	if rejoin {
		n.met.rejoins.Inc()
		n.logf("cluster: rejoined as follower of %s for own range (fence %d); pre-fence state discarded", h.ID, bl.Fence)
	}
	n.met.baseApplied.Inc()
	if !reply(msgBaselineAck, ack{Code: ackOK}) {
		return
	}
	n.logf("cluster: standby for %s (from %s) imported (epoch %d, fence %d, %d shards)", rangeID, h.ID, bl.Epoch, bl.Fence, len(curs))

	defer func() {
		sb.mu.Lock()
		sb.live = false
		sb.mu.Unlock()
	}()
	for {
		// Streams idle while the sender takes no writes; only the transfer
		// itself is bounded.
		conn.SetReadDeadline(time.Time{})
		typ, p, err = readFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case msgView:
			// Mid-stream view push: the commit point of a range handoff.
			// Applying it may promote this very standby; the sender treats
			// our ack as the ownership flip.
			v, verr := decodeView(n.cfg.Key, p)
			if verr != nil {
				n.met.viewRefused.Inc()
				reply(msgViewAck, ack{Code: ackError, Msg: verr.Error()})
				return
			}
			if verr = n.applyView(v); verr != nil {
				reply(msgViewAck, ack{Code: ackError, Msg: verr.Error()})
				return
			}
			if !reply(msgViewAck, ack{Code: ackOK}) {
				return
			}
			continue
		case msgSegment:
		default:
			return
		}
		seg, err := persist.DecodeSegment(n.cfg.Key, p)
		if err != nil {
			reply(msgSegmentAck, ack{Code: ackError, Msg: err.Error()})
			return
		}
		code, msg := n.applySegment(rangeID, sb, seg)
		if !reply(msgSegmentAck, ack{Code: code, Msg: msg}) {
			return
		}
		if code == ackFenced {
			return
		}
	}
}

// lineageKnown reports whether l is a ring lineage in v.
func lineageKnown(v *View, l string) bool {
	for _, x := range v.Lineages {
		if x == l {
			return true
		}
	}
	return false
}

// rangeStanding answers the failover arbitration query: what this node
// holds for range l — "serving" (promoted or own), "standby", or "none".
func (n *Node) rangeStanding(l string) string {
	if l == n.selfLineage && l != "" {
		if _, dep := n.isDeposed(); !dep {
			return "serving"
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted[l] != nil && n.rangeDeposed[l] == "" {
		return "serving"
	}
	if n.standbys[l] != nil {
		return "standby"
	}
	return "none"
}

// checkFence records the epoch f claimed for a range and reports whether
// a higher epoch has already superseded it (or the range was promoted
// here). Epochs only ratchet up.
func (n *Node) checkFence(rangeID string, f uint64) (holder string, fenced bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if (n.promoted[rangeID] != nil && n.rangeDeposed[rangeID] == "") || n.fences[rangeID] > f {
		return n.holderLocked(rangeID), true
	}
	if f > n.fences[rangeID] {
		n.fences[rangeID] = f
	}
	return "", false
}

func (n *Node) holderOf(rangeID string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.holderLocked(rangeID)
}

// holderLocked is this node's best knowledge of who serves the range
// now: itself if it promoted the range, the member that fenced it away
// otherwise, or empty (let the client walk successors).
func (n *Node) holderLocked(rangeID string) string {
	if n.promoted[rangeID] != nil && n.rangeDeposed[rangeID] == "" {
		return n.self.ID
	}
	return n.rangeDeposed[rangeID]
}

// installStandby registers a freshly imported standby, replacing any
// previous one for the same range (a reconnecting sender re-baselines).
// It refuses if the range is served here — the sender is deposed, not
// resyncing.
func (n *Node) installStandby(sb *standby) bool {
	n.mu.Lock()
	if n.promoted[sb.owner] != nil && n.rangeDeposed[sb.owner] == "" {
		n.mu.Unlock()
		return false
	}
	old := n.standbys[sb.owner]
	n.standbys[sb.owner] = sb
	n.met.standbys.Set(int64(len(n.standbys)))
	n.mu.Unlock()
	if old != nil {
		old.mu.Lock()
		stale := !old.promoted
		old.mu.Unlock()
		if stale {
			old.pool.Close()
		}
	}
	return true
}

// applySegment validates one shipped batch against the standby's cursor
// and replays it. The standby lock serializes application against
// promotion: once promoted, the answer is ackFenced and nothing touches
// the pool.
func (n *Node) applySegment(rangeID string, sb *standby, seg *persist.Segment) (uint8, string) {
	if holder, fenced := n.checkFence(rangeID, seg.Fence); fenced {
		n.met.fenceRej.Inc()
		return ackFenced, holder
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.promoted {
		n.met.fenceRej.Inc()
		return ackFenced, n.self.ID
	}
	if int(seg.Shard) >= len(sb.curs) {
		return ackError, fmt.Sprintf("segment for shard %d of %d", seg.Shard, len(sb.curs))
	}
	ops, err := sb.curs[seg.Shard].Apply(seg)
	if err != nil {
		switch {
		case errors.Is(err, persist.ErrSegmentEpoch), errors.Is(err, persist.ErrSegmentGap):
			// The sender checkpointed (log epoch rotated) or we missed
			// traffic; the stream must restart from a fresh baseline. The
			// standby keeps its last consistent state meanwhile — every
			// acknowledged write up to this point is already in it.
			n.met.resyncs.Inc()
			return ackResync, err.Error()
		case errors.Is(err, persist.ErrSegmentRollback):
			// The sender is behind what we already hold: a restarted owner
			// replaying old traffic. Never applied; it must re-baseline.
			n.met.resyncs.Inc()
			return ackResync, err.Error()
		default:
			return ackError, err.Error()
		}
	}
	for _, op := range ops {
		if _, rerr := sb.pool.ReplayOp(int(seg.Shard), op); rerr != nil {
			if errors.Is(rerr, core.ErrTampered) {
				return ackError, fmt.Sprintf("replay: %v", rerr)
			}
			// Deterministic rejection the owner saw too (the op was logged
			// but refused identically on both sides); skip, like recovery.
			continue
		}
	}
	n.met.segApplied.Inc()
	return ackOK, ""
}
