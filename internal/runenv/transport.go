package runenv

// Transport abstraction for distributed (multi-OS-process) runtimes: when a
// message crosses a process boundary its payload must be serialized, and a
// runtime that hosts only part of the world needs a way to run just its own
// ranks. rtime.World is the PartialRunner — rtime.Runner is the case where
// every rank is local — and internal/dtime is the transport that uses a
// PayloadCodec; within one process payloads travel as in-memory references,
// and vtime uses neither hook.

// PayloadCodec serializes the application payloads a distributed transport
// must put on the wire. Kind is the runenv message kind; the codec must
// round-trip every payload the application sends to a remote rank.
//
// The transport owns the bytes on both sides. On the way out it hands the
// codec its own write buffer, so encoding appends and never replaces; on the
// way in it hands the codec a view of its read buffer, which the next frame
// overwrites, so decoding copies out every value it returns.
//
// Decode must be total: any input — truncated, oversized, corrupted — must
// return an error, never panic. Encoders and decoders on both sides of a
// connection must agree on the byte layout per kind (version it: the
// transport's frame header carries a protocol version byte).
type PayloadCodec interface {
	// AppendPayload appends the wire form of one message's payload to dst
	// and returns the extended slice, leaving dst[:len(dst)] as it was.
	AppendPayload(dst []byte, kind int, payload any) ([]byte, error)
	// DecodePayload reconstructs a payload from its wire form. It must not
	// retain data, nor return a value that aliases it.
	DecodePayload(kind int, data []byte) (any, error)
}

// PartialRunner runs a subset of a world's processes; a transport delivers
// messages to and from the ranks that live elsewhere. cfg.Procs is the total
// number of ranks in the world; bodies maps the locally hosted ranks to
// their process bodies. Run returns the final local time (the maximum clock
// any local process reached).
//
// The Config hooks (ComputeTime, Delay, FaultHook, Observer) are consulted
// exactly as by a full Runner, but only for events that happen locally: the
// fate of a message to a remote rank is the transport's business.
type PartialRunner interface {
	RunRanks(cfg Config, bodies map[int]Body) float64
}
