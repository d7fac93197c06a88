package chaos

import (
	"bytes"
	"fmt"
	"strings"

	"aisebmt/internal/obs"
	"aisebmt/internal/shard"
)

// verifyObs holds the wired observability subsystem to the same bytes a
// live /metrics scrape would serve. Call it after the matrix has run
// (and healed — the one-hot state check expects every shard serving):
//
//   - the exposition (registry families + the pool's scrape section)
//     passes the metric lint: secmemd_ prefix, HELP/TYPE per family, no
//     duplicate series
//   - every quarantine the matrix latched surfaced as a
//     secmemd_shard_transitions_total{state="quarantined"} increment,
//     and the healed pool reads back as one-hot serving gauges
//   - at least one traced write's span timeline covers the whole path:
//     queue wait → crypto execution → WAL append → fsync. The store
//     runs FsyncAlways, so a durable write must show every stage.
func (h *harness) verifyObs() error {
	var buf bytes.Buffer
	if err := h.obs.WritePrometheus(&buf); err != nil {
		return fmt.Errorf("chaos: render exposition: %w", err)
	}
	h.pool.WriteMetrics(&buf)
	text := buf.String()

	if probs := obs.Lint(text, "secmemd_"); len(probs) > 0 {
		return fmt.Errorf("chaos: metrics lint: %s", strings.Join(probs, "; "))
	}

	samples := obs.ParseSamples(text)
	quar := samples[`secmemd_shard_transitions_total{state="quarantined"}`]
	if ps := h.pool.Stats(); ps.Faults > 0 && quar == 0 {
		return fmt.Errorf("chaos: %d pool faults latched but no quarantined transition surfaced in metrics", ps.Faults)
	}
	for i := 0; i < poolShards; i++ {
		key := fmt.Sprintf(`secmemd_shard_state{shard="%d",state="serving"}`, i)
		if samples[key] != 1 {
			return fmt.Errorf("chaos: healed shard %d not one-hot serving in scrape (%s = %v)", i, key, samples[key])
		}
	}

	recs := h.obs.SnapshotTraces(nil)
	if len(recs) == 0 {
		return fmt.Errorf("chaos: trace rings empty after a traced run")
	}
	for i := range recs {
		r := &recs[i]
		if shard.TraceOpName(r.Op) == "write" && r.Status == 0 &&
			r.QueueNs > 0 && r.ExecNs > 0 && r.AppendNs > 0 && r.FsyncNs > 0 {
			return nil
		}
	}
	return fmt.Errorf("chaos: none of %d ring records shows a write spanning queue→crypto→append→fsync", len(recs))
}
