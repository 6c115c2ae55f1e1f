package metrics

import (
	"fmt"
	"sort"
)

// MergeRuns federates the per-worker telemetry of one distributed run into
// a single run view: per-rank sample series are taken from the worker that
// hosts the rank (a rank sampled by two workers is an error), events are
// merged in time order, and the runtime aggregates are summed (QueueMax
// takes the maximum). The manifest is the first run's, with its Dist section
// cleared — the caller owns the federated manifest.
func MergeRuns(runs []*Run) (*Run, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("metrics: nothing to merge")
	}
	out := &Run{Manifest: runs[0].Manifest}
	out.Manifest.Dist = nil
	for _, r := range runs {
		for rank, samples := range r.Samples {
			if len(samples) == 0 {
				continue
			}
			for len(out.Samples) <= rank {
				out.Samples = append(out.Samples, nil)
			}
			if len(out.Samples[rank]) > 0 {
				return nil, fmt.Errorf("metrics: rank %d sampled by more than one worker", rank)
			}
			out.Samples[rank] = append([]NodeSample(nil), samples...)
		}
		out.Events = append(out.Events, r.Events...)
		out.EventsDropped += r.EventsDropped
		out.Delivered += r.Delivered
		out.Control += r.Control
		if r.QueueMax > out.QueueMax {
			out.QueueMax = r.QueueMax
		}
		out.Latency = mergeHist(out.Latency, r.Latency)
		for rank, n := range r.Faults {
			for len(out.Faults) <= rank {
				out.Faults = append(out.Faults, 0)
			}
			out.Faults[rank] += n
		}
	}
	sort.SliceStable(out.Events, func(a, b int) bool { return out.Events[a].T < out.Events[b].T })
	return out, nil
}

// mergeHist adds two latency histogram snapshots bucket by bucket. The
// snapshots share one bucketing scheme (trailing empty buckets trimmed), so
// the longer bounds slice subsumes the shorter.
func mergeHist(a, b HistSnapshot) HistSnapshot {
	if len(b.Bounds) > len(a.Bounds) {
		a, b = b, a
	}
	out := HistSnapshot{
		Bounds: append([]float64(nil), a.Bounds...),
		Counts: append([]uint64(nil), a.Counts...),
		Count:  a.Count + b.Count,
		Sum:    a.Sum + b.Sum,
	}
	for i, n := range b.Counts {
		out.Counts[i] += n
	}
	return out
}
