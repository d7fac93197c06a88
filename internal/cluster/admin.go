package cluster

import (
	"encoding/json"
	"fmt"
	"time"
)

// This file is the ring-change protocol: sealed membership views ratchet
// through an epoch, and each moving range is handed off through the same
// verified baseline + segment catch-up machinery that failover trusts.
// One admin operation should run at a time, cluster-wide — epochs refuse
// regressions and collisions fail closed, but concurrent operators can
// make each other's operations abort.

// applyView installs a newer membership view: seals it to disk, ratchets
// the anchor's membership epoch, swaps the routing structures, and acts
// on serving changes relative to the previously applied view (promote a
// range handed to us; depose one handed away). Idempotent at the same
// epoch; regressions are refused.
func (n *Node) applyView(v *View) error {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	select {
	case <-n.closed:
		return fmt.Errorf("cluster: node closed")
	default:
	}
	cur := n.curView()
	if v.Epoch < cur.Epoch {
		n.met.viewRefused.Inc()
		return fmt.Errorf("cluster: view epoch %d regresses applied epoch %d", v.Epoch, cur.Epoch)
	}
	if v.Epoch == cur.Epoch {
		return nil
	}
	ms, err := v.membership()
	if err != nil {
		n.met.viewRefused.Inc()
		return fmt.Errorf("cluster: refused view %d: %w", v.Epoch, err)
	}
	if _, ok := ms.Member(n.self.ID); !ok && !v.isRemoved(n.self.ID) {
		n.met.viewRefused.Inc()
		return fmt.Errorf("cluster: view %d neither lists nor removes this member", v.Epoch)
	}
	if err := saveView(n.cfg.DataDir, n.cfg.Key, v); err != nil {
		return fmt.Errorf("cluster: persist view %d: %w", v.Epoch, err)
	}
	n.cfg.Store.SetMemEpoch(v.Epoch)
	n.met.viewEpoch.Set(int64(v.Epoch))

	if v.isRemoved(n.self.ID) {
		// Expelled. Stop serving everything; keep the old routing
		// structures so redirects still resolve. A restart refuses to
		// come back (the view is sealed, the epoch is anchored).
		n.view.Store(v)
		n.logf("cluster: this member was removed from the cluster at epoch %d", v.Epoch)
		if n.selfLineage != "" {
			n.becomeDeposed(v.servingMember(n.selfLineage))
		}
		n.mu.Lock()
		var prs []string
		for l := range n.promoted {
			prs = append(prs, l)
		}
		n.mu.Unlock()
		for _, l := range prs {
			n.deposeRange(l, v.servingMember(l))
		}
		return nil
	}

	n.view.Store(v)
	n.ms.Store(ms)
	n.met.members.Set(int64(len(v.Members)))
	if n.selfLineage != "" {
		n.met.ownedArcs.Set(int64(ms.Ring().Ranges()[n.selfLineage]))
	}
	n.logf("cluster: applied membership view %d (%d members, %d lineages)", v.Epoch, len(v.Members), len(v.Lineages))

	// Serving transitions: only ranges whose assignment changed in this
	// ratchet. Failover promotions are discovered, never written into
	// views, so an unchanged assignment must not disturb them.
	for _, l := range v.Lineages {
		was, now := cur.servingMember(l), v.servingMember(l)
		if was == now {
			continue
		}
		switch {
		case now == n.self.ID:
			// Handed to us; the handoff shipped a standby here first.
			if err := n.promote(l); err != nil {
				n.logf("cluster: promote handed-off range %s: %v", l, err)
			}
		case was == n.self.ID:
			if l == n.selfLineage {
				n.mu.Lock()
				ship := n.ship
				n.mu.Unlock()
				if ship != nil {
					ship.depose()
				}
				n.becomeDeposed(now)
			} else {
				n.deposeRange(l, now)
			}
		}
	}

	// Growth: a formerly single-member cluster gained peers — start the
	// machinery NewNode skips for one member.
	if len(v.Members) > 1 {
		if n.selfLineage != "" && v.servingMember(n.selfLineage) == n.self.ID {
			if _, dep := n.isDeposed(); !dep {
				n.mu.Lock()
				start := n.ship == nil
				if start {
					n.ship = newShipper(n, n.selfLineage, n.cfg.Store, true)
				}
				ship := n.ship
				n.mu.Unlock()
				if start {
					// The rotate hook (storeRotated) was wired at boot and
					// picks the new stream up through n.ship.
					n.cfg.Store.SetSegmentSink(ship.sink)
					n.wg.Add(1)
					go ship.run()
				}
			}
		}
		if !n.monitorOn {
			n.monitorOn = true
			n.wg.Add(1)
			go n.monitor()
		}
	}
	return nil
}

// broadcastView pushes a sealed view to every other member, best effort:
// members that are down learn it on their next handshake (epoch in the
// hello) or from the seed they fetch a view from when rejoining.
func (n *Node) broadcastView(v *View) {
	sealed := encodeView(n.cfg.Key, v)
	for _, m := range v.Members {
		if m.ID == n.self.ID {
			continue
		}
		if err := n.pushViewTo(m, sealed); err != nil {
			n.logf("cluster: view %d push to %s: %v", v.Epoch, m.ID, err)
		}
	}
}

// pushViewTo delivers one sealed view over a short-lived repl
// connection.
func (n *Node) pushViewTo(m Member, sealed []byte) error {
	conn, err := n.cfg.Dialer(n.self.ID, m.Repl)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(n.cfg.IOTimeout))
	if err := writeFrame(conn, msgView, sealed); err != nil {
		return err
	}
	typ, p, err := readFrame(conn)
	if err != nil {
		return err
	}
	if typ != msgViewAck {
		return fmt.Errorf("unexpected frame %d for view ack", typ)
	}
	a, err := decodeAck(p)
	if err != nil {
		return err
	}
	if a.Code != ackOK {
		return fmt.Errorf("refused: %s", a.Msg)
	}
	return nil
}

// handoff moves one range this node serves to target: pin the range's
// shipper to the target, wait for the verified baseline + catch-up to
// attach there, then push the new view over the attached stream — the
// target's ack is the ownership flip (it promotes the standby under a
// higher fence; our next segment would bounce off it, so no write is
// ever acknowledged by both sides).
func (n *Node) handoff(l, target string) error {
	cur := n.curView()
	if _, ok := cur.member(target); !ok {
		return fmt.Errorf("cluster: handoff target %s is not a member", target)
	}
	if target == n.self.ID {
		return fmt.Errorf("cluster: cannot hand off %s to self", l)
	}
	var s *shipper
	if l == n.selfLineage {
		if _, dep := n.isDeposed(); dep {
			return fmt.Errorf("cluster: not serving own range %s", l)
		}
		n.mu.Lock()
		s = n.ship
		n.mu.Unlock()
	} else {
		n.mu.Lock()
		if n.promoted[l] == nil || n.rangeDeposed[l] != "" {
			n.mu.Unlock()
			return fmt.Errorf("cluster: range %s is not served here", l)
		}
		s = n.shippers[l]
		n.mu.Unlock()
	}
	if s == nil {
		return fmt.Errorf("cluster: no replication stream for range %s", l)
	}

	s.retarget(target)
	flipped := false
	defer func() {
		if !flipped {
			// Failed or timed out (e.g. the joiner died mid-handoff):
			// resume normal successor shipping; ownership never moved.
			s.retarget("")
		}
	}()
	deadline := time.Now().Add(8 * n.cfg.IOTimeout)
	for s.attachedTo() != target {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: handoff of %s: %s did not attach in time", l, target)
		}
		select {
		case <-n.closed:
			return fmt.Errorf("cluster: node closed")
		case <-time.After(10 * time.Millisecond):
		}
	}

	nv := n.curView().clone()
	nv.Epoch++
	nv.Serving[l] = target
	if err := s.pushView(encodeView(n.cfg.Key, nv)); err != nil {
		return fmt.Errorf("cluster: handoff of %s: view push: %w", l, err)
	}
	flipped = true
	if err := n.applyView(nv); err != nil {
		// The target has flipped; our copy is fenced either way — the
		// next segment we might ship answers ackFenced and deposes us.
		return fmt.Errorf("cluster: handoff of %s: local apply: %w", l, err)
	}
	n.met.handoffs.Inc()
	n.logf("cluster: handed range %s to %s at epoch %d", l, target, nv.Epoch)
	n.broadcastView(nv)
	return nil
}

// servedRanges lists the ranges this node currently serves (its own
// lineage plus adopted ones).
func (n *Node) servedRanges() []string {
	var out []string
	if n.selfLineage != "" && n.curView().servingMember(n.selfLineage) == n.self.ID {
		if _, dep := n.isDeposed(); !dep {
			out = append(out, n.selfLineage)
		}
	}
	n.mu.Lock()
	for l := range n.promoted {
		if n.rangeDeposed[l] == "" {
			out = append(out, l)
		}
	}
	n.mu.Unlock()
	return out
}

// pickHandoffTarget chooses where a leaving member sends range l: the
// first live successor of the range's lineage that is not this node.
func (n *Node) pickHandoffTarget(l string) string {
	for _, m := range n.membership().Successors(l) {
		if m.ID == n.self.ID {
			continue
		}
		if n.cfg.Probe(n.self.ID, m) == nil {
			return m.ID
		}
	}
	return ""
}

// ClusterView implements server.ClusterBackend: the applied view as
// JSON, for operators.
func (n *Node) ClusterView() ([]byte, error) {
	return json.Marshal(n.curView())
}

// ClusterJoin adds a member (spec: "id=wire/health/repl") to the ring.
// The new member founds no lineage — no data moves; it immediately hosts
// standbys and is a handoff and re-replication target. The joining
// daemon itself boots afterwards with -cluster-join pointed at any seed
// member and fetches this view.
func (n *Node) ClusterJoin(spec string) ([]byte, error) {
	mems, err := ParseMembers(spec)
	if err != nil {
		return nil, err
	}
	if len(mems) != 1 {
		return nil, fmt.Errorf("cluster: join takes exactly one member spec")
	}
	m := mems[0]
	n.adminMu.Lock()
	defer n.adminMu.Unlock()
	cur := n.curView()
	if cur.isRemoved(m.ID) {
		return nil, fmt.Errorf("cluster: member ID %s was removed and cannot be reused; pick a fresh ID", m.ID)
	}
	if _, ok := cur.member(m.ID); ok {
		return nil, fmt.Errorf("cluster: member %s already in the ring", m.ID)
	}
	nv := cur.clone()
	nv.Epoch++
	nv.Members = append(nv.Members, m)
	if err := n.applyView(nv); err != nil {
		return nil, err
	}
	n.logf("cluster: member %s joined at epoch %d", m.ID, nv.Epoch)
	n.broadcastView(nv)
	return json.Marshal(nv)
}

// ClusterLeave gracefully retires this member: every range it serves is
// handed off through a verified baseline + catch-up, then a final epoch
// drops it from the ring and marks it removed. Must be sent to the
// leaving member itself (it drives its own handoffs). The process keeps
// running as a redirect-only shell afterwards; stop it at leisure.
func (n *Node) ClusterLeave(id string) ([]byte, error) {
	if id == "" {
		id = n.self.ID
	}
	if id != n.self.ID {
		return nil, fmt.Errorf("cluster: leave must be sent to the leaving member %s", id)
	}
	n.adminMu.Lock()
	defer n.adminMu.Unlock()
	if len(n.curView().Members) < 2 {
		return nil, fmt.Errorf("cluster: the last member cannot leave")
	}
	for _, l := range n.servedRanges() {
		target := n.pickHandoffTarget(l)
		if target == "" {
			return nil, fmt.Errorf("cluster: no live handoff target for range %s", l)
		}
		if err := n.handoff(l, target); err != nil {
			return nil, err
		}
	}
	cur := n.curView()
	nv := cur.clone()
	nv.Epoch++
	keep := nv.Members[:0]
	for _, m := range nv.Members {
		if m.ID != n.self.ID {
			keep = append(keep, m)
		}
	}
	nv.Members = keep
	nv.Removed = append(nv.Removed, n.self.ID)
	if err := n.applyView(nv); err != nil {
		return nil, err
	}
	n.logf("cluster: left the ring at epoch %d", nv.Epoch)
	n.broadcastView(nv)
	return json.Marshal(nv)
}

// ClusterRemove expels a dead member without its cooperation. Any
// lineage the view still assigns to it must already be served here
// (failover promoted it), so the new view records reality; run the
// removal on the promoting node. The removed ID is burned: its streams
// and restarts are refused from now on.
func (n *Node) ClusterRemove(id string) ([]byte, error) {
	if id == n.self.ID {
		return nil, fmt.Errorf("cluster: use leave to retire this member")
	}
	n.adminMu.Lock()
	defer n.adminMu.Unlock()
	cur := n.curView()
	if _, ok := cur.member(id); !ok {
		return nil, fmt.Errorf("cluster: unknown member %s", id)
	}
	nv := cur.clone()
	nv.Epoch++
	for _, l := range nv.Lineages {
		if nv.servingMember(l) != id {
			continue
		}
		n.mu.Lock()
		serving := n.promoted[l] != nil && n.rangeDeposed[l] == ""
		n.mu.Unlock()
		if !serving {
			return nil, fmt.Errorf("cluster: range %s of %s is not served here; run remove on its current holder", l, id)
		}
		nv.Serving[l] = n.self.ID
	}
	keep := nv.Members[:0]
	for _, m := range nv.Members {
		if m.ID != id {
			keep = append(keep, m)
		}
	}
	nv.Members = keep
	nv.Removed = append(nv.Removed, id)
	if err := n.applyView(nv); err != nil {
		return nil, err
	}
	n.logf("cluster: removed member %s at epoch %d", id, nv.Epoch)
	n.broadcastView(nv)
	return json.Marshal(nv)
}
