package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"aiac/internal/brusselator"
	"aiac/internal/fault"
	"aiac/internal/grid"
	"aiac/internal/loadbalance"
	"aiac/internal/metrics"
	"aiac/internal/trace"
)

// Golden engine grid: the digests below were computed on the last commit
// that still had two virtual-time schedulers (9fe44a4, on its sequential
// one) and must never be regenerated from the code under test. Each case
// digests everything a run can externalize — the solver Result, the
// telemetry JSONL (wall_seconds zeroed: host-dependent) and the trace —
// across mode, detection protocol, platform, faults, load balancing and
// mapping, so a change to the scheduler, or to its hand-off, that moves
// anything a user can see fails here.

type goldenDigest struct{ result, jsonl, trace string }

func digest(format string, args ...any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf(format, args...))))
}

// runGolden executes one solver run and digests its observable outputs.
func runGolden(t *testing.T, cfg Config) goldenDigest {
	t.Helper()
	s := &metrics.Sink{}
	cfg.Metrics = s
	log := &trace.Log{}
	cfg.Trace = log
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Manifest.Outcome.WallSeconds = 0
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// %v prints a float64 in its shortest round-trip form, so the digests
	// are bit-sensitive.
	return goldenDigest{
		result: digest("%+v", *res),
		jsonl:  digest("%s", buf.Bytes()),
		trace:  digest("%+v", log.Events()),
	}
}

// TestParallelEngineEquivalence keeps the name it had when its six cases
// compared the two schedulers: the cases are the same, the comparator is now
// the pinned record.
func TestParallelEngineEquivalence(t *testing.T) {
	small, _ := smallBruss()
	wide := brusselator.New(func() brusselator.Params {
		p := brusselator.DefaultParams(32, 0.05)
		p.T = 1
		return p
	}())

	cases := []struct {
		name string
		mk   func() Config
		want goldenDigest
	}{
		{"aiac-lb-central-homogeneous", func() Config {
			cfg := baseConfig(small, 4)
			cfg.LB = loadbalance.DefaultPolicy()
			cfg.LB.Period = 5
			cfg.LB.MinKeep = 2
			return cfg
		}, goldenDigest{
			result: "d1b3559f40bf55b1e69320cf88049a3f686421ba0445b3fc1147789592a92aa3",
			jsonl:  "d14ac7ae3c06fada019af4860b4dfd526cf2b544410249c249aa25f39c6644e3",
			trace:  "bc70890f2d5bc10f747cca7f93dce7c9a5cdd1dbea01c0b59d33083af2df0416",
		}},
		{"aiac-lb-ring-heterogrid", func() Config {
			cfg := baseConfig(wide, 8)
			cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 42, MultiUser: true})
			cfg.Detection = DetectRing
			cfg.Tol = 1e-6
			cfg.MaxTime = 30
			cfg.LB = loadbalance.DefaultPolicy()
			cfg.LB.Period = 10
			cfg.LB.MinKeep = 2
			return cfg
		}, goldenDigest{
			result: "948cd326dfc098d9d0cfa42ab44b59cb1d59f705a2cc24244e45a845c83c5142",
			jsonl:  "1d3f048dd659104c88b28a7d1b96a5aa1275ad8df0be047fedfaae742f491ab0",
			trace:  "98c44c02b2de3b983c99b6bbaee52954d931268a3e6ba8e7df03fa125f74a929",
		}},
		{"aiac-faults-heterogrid", func() Config {
			cfg := baseConfig(wide, 6)
			cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 7})
			cfg.Tol = 1e-6
			cfg.MaxTime = 30
			cfg.Faults = &fault.Plan{Seed: 3, Msg: fault.Rates{Drop: 0.03, Dup: 0.02, Reorder: 0.05, Spike: 0.02}}
			return cfg
		}, goldenDigest{
			result: "39e2e6687e9245f6cad12f651f9e7b958219fe523d17b4096b30d397a78e2dad",
			jsonl:  "4a13e138ec9e7846cb9ee3408269df1d88cb825996adff84599ab895d6ece3fd",
			trace:  "ce6e6a0d39a8d562b028c5a7e149784fa435be640acc829c1da3fa7713108bf6",
		}},
		{"sisc-barrier-faulted", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Mode = SISC
			cfg.Faults = &fault.Plan{Seed: 11, Msg: fault.Rates{Spike: 0.1}}
			return cfg
		}, goldenDigest{
			result: "0b79604c850a9ac01d63ac46dd4437274dd2d2acc22f6084476cfd6e4f8b04f8",
			jsonl:  "859cc1d3c66d2f01bfc5770e66d000b1b856bbfcaf0bf946d5a64276fa57313f",
			trace:  "f48320b35c13ad469ed12682d433ce9f86dcb2d881ee94a911509ddf1d271923",
		}},
		{"siac-central-heterogeneous", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Mode = SIAC
			cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
			return cfg
		}, goldenDigest{
			result: "3ba521805b33283468c5d34e414f84a8e60f4f5988baa0beec44847b4c471c75",
			jsonl:  "46aac73134bbb9fbd7ab2fbb6e3ae9962dd8c45c2e2798403f760c0b29076f27",
			trace:  "9ddca642f54012fe123b7d058fe812032aa84eea1de98ce62e6ff7c61f8182ff",
		}},
		{"aiacgeneral-ring-mapped", func() Config {
			cfg := baseConfig(wide, 6)
			cfg.Mode = AIACGeneral
			cfg.Detection = DetectRing
			cfg.Cluster = grid.HeteroGrid15(grid.HeteroGridConfig{Seed: 1})
			cfg.Mapping = grid.SiteOrderedMapping(cfg.Cluster)
			cfg.Tol = 1e-6
			cfg.MaxTime = 30
			return cfg
		}, goldenDigest{
			result: "64ea1c69745396ea2e96d4792712734f1a2dd99ece45a0763eb58dcce0cd5836",
			jsonl:  "89d460cd82b177a1b60580b16fc5d305070b9c9129fb1eeee159e3cad7483c3c",
			trace:  "b7b9f1ed69e65aa71c54be3cf2defffa439b4d6adcd29491064a94c9261b0195",
		}},
		// The cases below pin paths the unification of the node-side
		// detection protocols moved; their digests were computed on the
		// commit before it. MaxIter aborts under all three protocols (the
		// AIAC ones with verification rounds and tokens in flight), SIAC
		// under the ring, and a SISC run whose barrier trace events are
		// cut by TraceIters.
		{"aiac-central-maxiter-abort", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
			cfg.MaxIter = 72
			return cfg
		}, goldenDigest{
			result: "005f7760fe044ffa911e10634e38a8d4bd979f7ff3a880addeeb3177a16b2172",
			jsonl:  "d8694742a8f94c8414e7e91a6301c06483314e7b2157675849167f03d70ed998",
			trace:  "fda2e17b076716cf0950672e5ed8f494981d25509b336e0efa09360d4398a2a1",
		}},
		{"aiac-ring-maxiter-abort", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
			cfg.Detection = DetectRing
			cfg.MaxIter = 80
			return cfg
		}, goldenDigest{
			result: "6d344a7d148b2a10ff4b73747111007bffe5f42ae7886bf0a184a589b7477e22",
			jsonl:  "86e61241471f44749a6f55a0d10494ec8af57544ab4d80bb7418d0dfeffa1436",
			trace:  "61fc99993cd1ccf775d8f215fc02b88cd5106b7ad3fb8cccec5ca7e97eed70cb",
		}},
		{"sisc-maxiter-abort", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Mode = SISC
			cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
			cfg.MaxIter = 30
			return cfg
		}, goldenDigest{
			result: "890c45ba8bd449c2506977b658cca4f4444cfb9aacbdebcd3af85a9049b38e50",
			jsonl:  "7921d6be4f4dfb91125ee72419cfef8f3a31ad4bfbf6d05158036cca11ee62dd",
			trace:  "a22f58fc7d3a859eee0fe955115dc35a4c7f8816d0771c605bf593527a515d1c",
		}},
		{"siac-ring-heterogeneous", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Mode = SIAC
			cfg.Detection = DetectRing
			cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
			return cfg
		}, goldenDigest{
			result: "70f4b1219f2b5a534261dac7d7ad303733f6c9c034f9f040dd36e988bcd03907",
			jsonl:  "249ca37d11071eeec71981606ad496e3616e41832bc788bf0f469ed72fab2293",
			trace:  "9e085abfada6d093f70f422a676a1a643dfd75e837ebd37a56a80cd1e21e6e84",
		}},
		{"sisc-traceiters", func() Config {
			cfg := baseConfig(small, 4)
			cfg.Mode = SISC
			cfg.Cluster = grid.Heterogeneous(4, 0.3, 5)
			cfg.TraceIters = 3
			return cfg
		}, goldenDigest{
			result: "64ff0936a4f875a1812cd26357c5f4b7eb6b5c7b66e8a68fc0d0ea1e544c1a1b",
			jsonl:  "6bfaafda66609e6bf2e0fb2dc745f9ee729561fa610ac165a9eac3b32b87ca56",
			trace:  "fc667afaf883d48de4d1b6ba30eaf1f18d1fd6b541c542e4f5d357f830539e09",
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			if got := runGolden(t, tc.mk()); got != tc.want {
				t.Errorf("digests %+v, want %+v", got, tc.want)
			}
		})
	}
}
