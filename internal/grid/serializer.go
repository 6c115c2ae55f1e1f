package grid

import "sync"

// Serializer wraps a cluster's delay model with link serialization: each
// directed (from, to) channel transmits one message at a time, so a message
// sent while the channel is busy queues behind the earlier ones. This makes
// network overload expressible — the paper's §6 warns that too-frequent or
// too-fine-grained balancing "will have the drawback to overload the
// network", which a pure-latency model cannot show.
//
// Transfer time decomposes into serialization (bytes/bandwidth, occupying
// the channel) plus propagation (latency, pipelined). One Serializer holds
// the busy state for one execution: create a fresh one per run.
type Serializer struct {
	Cluster *Cluster

	mu sync.Mutex
	n  int
	// busy[from*n+to] is the channel's free-at time; the zero value means
	// the channel has never been used, which behaves identically because
	// simulation times are non-negative. A flat slice keeps the per-send
	// cost to one indexed load instead of a map lookup with key boxing.
	busy []float64
}

// NewSerializer creates a serializer for one execution on the cluster.
func NewSerializer(c *Cluster) *Serializer {
	n := c.P()
	return &Serializer{Cluster: c, n: n, busy: make([]float64, n*n)}
}

// Delay implements runenv.Config.Delay with per-channel queuing. It is safe
// for concurrent use (the real-time runtime calls it from every sender).
func (s *Serializer) Delay(from, to, bytes int, now float64) float64 {
	link := s.Cluster.Link(from, to)
	ser := 0.0
	if link.Bandwidth > 0 {
		ser = float64(bytes) / link.Bandwidth
	}
	idx := from*s.n + to
	s.mu.Lock()
	start := now
	if b := s.busy[idx]; b > start {
		start = b
	}
	s.busy[idx] = start + ser
	s.mu.Unlock()
	return (start - now) + ser + link.Latency
}
