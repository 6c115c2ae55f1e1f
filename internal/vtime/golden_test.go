package vtime

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aiac/internal/runenv"
	"aiac/internal/trace"
)

// Golden equivalence: the hashes below were computed on the commit *before*
// Work/Sleep became deferred (every Work and Sleep a heap event plus a
// scheduler hand-off) and must never be regenerated from the code under
// test. Each one digests the whole observable record of a seeded random
// process program — Run's return value, the outcome flags, every process's
// final clock and its own log (what it saw from Now, Send, LastSendSeq,
// Recv, RecvWait, Pending and Stopped, in program order), the Observer's
// (msg, depth) sequence and the trace log — so any change in what a process
// or an observer can see of the world changes the hash. (The same commit had
// a second, windowed scheduler that met these digests too; it is gone.)

// goldenWorld is one pinned scenario.
type goldenWorld struct {
	seed    int64
	rounds  int
	maxTime float64
	// sharedLinks makes Delay stateful in the way runenv.Config allows: the
	// processes of a group share one serialized channel per destination
	// group, so the order in which co-scheduled senders reach Delay shows.
	sharedLinks bool
	want        string
}

var goldenWorlds = []goldenWorld{
	{seed: 1, rounds: 120, want: "cf8590fdcd815bf3d75e4df6c854b4781f5c32a801ecda56b84558e628dfb079"},
	{seed: 2, rounds: 200, want: "2f21e3e8b7e47b258dc48aca8b594e4c95f44ca577e624e1181c00567205a74f"},
	{seed: 3, rounds: 160, maxTime: 0.021, want: "6022517deee30f4c889c72e0542eeec5085cf514c9457c79f7be05e7a86a6511"},
	{seed: 4, rounds: 90, maxTime: 0.0087, want: "27005f16264af04872d24048a09c09997301dda78d3ad97c31d11ec3ce2b7f3c"},
	{seed: 5, rounds: 200, sharedLinks: true, want: "2844d3eea4d0e47a05ac18473ccf4df20ffd2b32bbc4bc87d46e5010f6ae11e8"},
}

// goldenGroups and goldenMinDelay shape the pinned worlds' latencies: links
// inside a group are short, links between groups at least goldenMinDelay.
const (
	goldenProcs    = 6
	goldenMinDelay = 2e-3
)

var goldenGroups = []int{0, 0, 1, 1, 2, 2}

// hashFloat writes the exact bits of v, so the digest is bit-sensitive.
func hashFloat(h hash.Hash, v float64) { fmt.Fprintf(h, "%016x,", math.Float64bits(v)) }

func hashMsg(h hash.Hash, m runenv.Msg) {
	fmt.Fprintf(h, "m%d>%d k%d p%v b%d s%d ", m.From, m.To, m.Kind, m.Payload, m.Bytes, m.Seq)
	hashFloat(h, m.SendT)
	hashFloat(h, m.RecvT)
}

type goldenObserver struct{ h hash.Hash }

func (o goldenObserver) MsgDelivered(m runenv.Msg, depth int) {
	hashMsg(o.h, m)
	fmt.Fprintf(o.h, "d%d;", depth)
}

// pureFaults is a stateless deterministic fault hook: decisions are a hash
// of the send's own arguments.
func pureFaults(from, to, kind, bytes int, now, delay float64) runenv.MsgFault {
	h := uint64(from)*0x9e3779b97f4a7c15 ^ uint64(to)*0xbf58476d1ce4e5b9 ^
		uint64(kind)*0x94d049bb133111eb ^ uint64(bytes+1)*0x2545f4914f6cdd1d
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 27
	var f runenv.MsgFault
	switch h % 16 {
	case 0:
		f.Drop = true
	case 1:
		f.ExtraDelay = float64(h%1000) * 1e-5
	case 2:
		f.Reorder = true
		f.ExtraDelay = float64(h%100) * 1e-4
	case 3:
		f.DupDelays = []float64{float64(h%500) * 1e-5}
	}
	return f
}

// run executes the scenario and returns its digest.
func (gw goldenWorld) run() string {
	rng := rand.New(rand.NewSource(gw.seed))
	n := goldenProcs
	lat := make([][]float64, n)
	for i := range lat {
		lat[i] = make([]float64, n)
		for j := range lat[i] {
			if goldenGroups[i] == goldenGroups[j] {
				lat[i][j] = 1e-5 + rng.Float64()*1e-3 // may be far below goldenMinDelay
			} else {
				lat[i][j] = goldenMinDelay * (1 + 4*rng.Float64())
			}
		}
	}
	delay := func(from, to, bytes int, _ float64) float64 {
		return lat[from][to] + float64(bytes)*1e-9
	}
	if gw.sharedLinks {
		const ngroups = 3
		busy := make([]float64, ngroups*ngroups) // channel free-at times
		delay = func(from, to, bytes int, now float64) float64 {
			ch := &busy[goldenGroups[from]*ngroups+goldenGroups[to]]
			start := math.Max(now, *ch)
			*ch = start + float64(bytes)*2e-6
			return *ch - now + lat[from][to]
		}
	}
	obsHash := sha256.New()
	log := &trace.Log{}
	cfg := runenv.Config{
		Trace:    log,
		Observer: goldenObserver{obsHash},
		MaxTime:  gw.maxTime,
		Delay:    delay,
		ComputeTime: func(node int, start, units float64) float64 {
			// Heterogeneous nodes whose speed also drifts with time, so the
			// cost of a Work depends on the clock it starts at.
			return units * (1 + 0.25*float64(node)) * (1 + 0.1*math.Sin(40*start))
		},
		FaultHook: pureFaults, // drops, duplicates, reorders, delay spikes
	}
	logs := make([]hash.Hash, n)
	bodies := make([]runenv.Body, n)
	for i := range bodies {
		h := sha256.New()
		logs[i] = h
		r := rand.New(rand.NewSource(gw.seed + int64(i)*7919))
		bodies[i] = func(env runenv.Env) { goldenBody(env, r, h, gw.rounds) }
	}
	cause := recordStop(&cfg)
	s := New(cfg)
	end := s.Run(bodies)

	total := sha256.New()
	fmt.Fprintf(total, "dead=%v timeout=%v end=", *cause == runenv.StopStalled, *cause == runenv.StopMaxTime)
	hashFloat(total, end)
	for i, p := range s.procs {
		fmt.Fprintf(total, "\nproc %d clock=", i)
		hashFloat(total, p.clock)
		fmt.Fprintf(total, "log=%x", logs[i].Sum(nil))
	}
	fmt.Fprintf(total, "\nobs=%x\ntrace=", obsHash.Sum(nil))
	for _, ev := range log.Events() {
		fmt.Fprintf(total, "%d>%d k%d i%d %q s%d ", ev.Node, ev.To, ev.Kind, ev.Iter, ev.Note, ev.Seq)
		hashFloat(total, ev.T0)
		hashFloat(total, ev.T1)
	}
	return fmt.Sprintf("%x", total.Sum(nil))
}

// goldenBody is the random process program: every op is drawn from the
// process's private RNG r, and everything the process can see goes into h.
func goldenBody(env runenv.Env, r *rand.Rand, h hash.Hash, rounds int) {
	me := env.Rank()
	n := env.NumProcs()
	now := func() { hashFloat(h, env.Now()) }
	recv := func(m runenv.Msg) {
		hashMsg(h, m)
		now()
	}
	drain := func() {
		for {
			m, ok := env.Recv()
			if !ok {
				return
			}
			recv(m)
		}
	}
	for k := 0; k < rounds; k++ {
		switch op := r.Intn(14); {
		case op < 4: // a burst of compute, as an engine sweep does
			for j := 1 + r.Intn(5); j > 0; j-- {
				env.Work(r.Float64() * 4e-4)
			}
			now()
		case op == 4:
			env.Sleep(r.Float64() * 1e-3)
			now()
		case op < 9: // send, possibly straight after unsynchronised compute
			to := r.Intn(n)
			arr := env.Send(to, k, me*1000+k, 8+r.Intn(64))
			fmt.Fprintf(h, "S%d q%d ", to, env.LastSendSeq())
			hashFloat(h, arr)
		case op == 9:
			drain()
		case op == 10:
			fmt.Fprintf(h, "P%d ", env.Pending())
			now()
		case op == 11:
			env.Trace(trace.Event{T0: env.Now(), T1: env.Now(), Node: me, To: -1, Kind: trace.Mark, Iter: k})
		case op == 12:
			fmt.Fprintf(h, "X%v ", env.Stopped())
		default:
			m, ok := env.RecvWait()
			if !ok {
				fmt.Fprintf(h, "halt ")
				now()
				return
			}
			recv(m)
		}
	}
	env.Sleep(0.05) // let in-flight messages land
	drain()
	fmt.Fprintf(h, "end%v ", env.Stopped())
	now()
}

// TestGoldenEquivalence asserts the pinned digests: deferring wakes changes
// nothing that can be observed.
func TestGoldenEquivalence(t *testing.T) {
	for _, gw := range goldenWorlds {
		if got := gw.run(); got != gw.want {
			t.Errorf("seed %d: digest %s, want %s", gw.seed, got, gw.want)
		}
	}
}

// TestMaxTimeInsideWorkBurst pins, from the same parent commit, the outcome
// of a run whose time limit falls in the middle of a burst of Work calls:
// the wake that would pass MaxTime is never executed, so the clocks stop at
// the last wake at or below the limit.
func TestMaxTimeInsideWorkBurst(t *testing.T) {
	cfg := runenv.Config{
		MaxTime: 2.0,
		Delay:   func(_, _, _ int, _ float64) float64 { return 0.05 },
	}
	cause := recordStop(&cfg)
	s := New(cfg)
	bodies := make([]runenv.Body, 3)
	for i := range bodies {
		bodies[i] = func(env runenv.Env) {
			step := 0.07 * float64(env.Rank()+1)
			for !env.Stopped() {
				for j := 0; j < 5; j++ {
					env.Work(step)
				}
				env.Send((env.Rank()+1)%3, 0, nil, 1)
				env.Recv()
			}
		}
	}
	end := s.Run(bodies)
	clocks := []float64{s.procs[0].clock, s.procs[1].clock, s.procs[2].clock}
	want := []float64{1.9600000000000013, 1.9600000000000009, 1.89}
	const wantEnd = 1.9600000000000013
	timedOut := *cause == runenv.StopMaxTime
	if !timedOut || end != wantEnd || !slices.Equal(clocks, want) {
		t.Errorf("end=%v timedOut=%v clocks=%v, want end=%v timedOut=true clocks=%v",
			end, timedOut, clocks, wantEnd, want)
	}
}
