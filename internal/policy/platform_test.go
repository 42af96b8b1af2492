package policy

import (
	"sync"
	"testing"

	"coscale/internal/freq"
)

// distinctPlatforms returns n configs describing n genuinely different
// platforms (memory timing varies), each validated.
func distinctPlatforms(t *testing.T, n int) []Config {
	t.Helper()
	cfgs := make([]Config, n)
	for i := range cfgs {
		cfgs[i] = testCfg(4)
		cfgs[i].Mem.TCLNs += float64(i) // part of platformKey and the identity guard
		if err := cfgs[i].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	return cfgs
}

// TestTableCacheConcurrentMixedPlatforms hammers one TableCache from many
// goroutines over interleaved distinct platforms — the coscale-serve worker
// pool shape — and checks the singleflight accounting: exactly one build per
// distinct platform, every other Get a hit, and all Gets for one platform
// returning the same shared instance. Run under -race this also proves the
// flight's publication of the built tables is properly synchronized.
func TestTableCacheConcurrentMixedPlatforms(t *testing.T) {
	const goroutines = 8
	const getsEach = 25
	cfgs := distinctPlatforms(t, 5)

	var tc TableCache
	got := make([][]*PlatformTables, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < getsEach; k++ {
				got[g] = append(got[g], tc.Get(cfgs[(g+k)%len(cfgs)]))
			}
		}(g)
	}
	wg.Wait()

	builds, hits := tc.Stats()
	if want := int64(len(cfgs)); builds != want {
		t.Errorf("builds = %d, want exactly %d (one per distinct platform)", builds, want)
	}
	if want := int64(goroutines*getsEach) - builds; hits != want {
		t.Errorf("hits = %d, want %d (every non-building Get)", hits, want)
	}
	for g := range got {
		for k, p := range got[g] {
			if q := tc.Get(cfgs[(g+k)%len(cfgs)]); p != q {
				t.Fatalf("goroutine %d get %d returned a private build", g, k)
			}
		}
	}
}

// TestTableCacheValueKeyed checks that the cache keys on platform values,
// not ladder pointer identity: two configs with separately constructed but
// identical ladders share one build.
func TestTableCacheValueKeyed(t *testing.T) {
	a, b := testCfg(4), testCfg(4)
	b.CoreLadder = freq.DefaultCoreLadder()
	if a.CoreLadder == b.CoreLadder {
		t.Fatal("fixture: ladders must be distinct pointers")
	}
	var tc TableCache
	if tc.Get(a) != tc.Get(b) {
		t.Error("identical platforms behind distinct ladder pointers got separate builds")
	}
	if builds, _ := tc.Stats(); builds != 1 {
		t.Errorf("builds = %d, want 1", builds)
	}
}

// TestEvaluatorPlatformIdentityGuard checks ensurePlatform's fast path: a
// steady-state Reset with a pointer-identical platform must not touch the
// shared cache at all — no build, not even a keyed hit — while swapping to
// an equal-value ladder behind a new pointer goes through the cache once
// and comes back a hit, never a rebuild.
func TestEvaluatorPlatformIdentityGuard(t *testing.T) {
	cfg := testCfg(4)
	var tc TableCache
	cfg.Tables = &tc
	obs := synthObs(cfg, memoryStats())

	ev := &Evaluator{}
	ev.Reset(cfg, obs)
	if builds, hits := tc.Stats(); builds != 1 || hits != 0 {
		t.Fatalf("first reset: builds %d hits %d, want 1 and 0", builds, hits)
	}
	for i := 0; i < 10; i++ {
		ev.Reset(cfg, obs)
	}
	if builds, hits := tc.Stats(); builds != 1 || hits != 0 {
		t.Errorf("pointer-identical resets touched the cache: builds %d hits %d, want 1 and 0",
			builds, hits)
	}

	clone := cfg
	clone.CoreLadder = freq.DefaultCoreLadder()
	ev.Reset(clone, obs)
	if builds, hits := tc.Stats(); builds != 1 || hits != 1 {
		t.Errorf("equal-value ladder swap: builds %d hits %d, want 1 and 1", builds, hits)
	}
}
