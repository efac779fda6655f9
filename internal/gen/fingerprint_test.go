package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"gpssn/internal/model"
)

// TestGeneratorFingerprints pins the SHA-256 of the saved bytes of the
// benchmark's four datasets (benchmark/workload.go) and the two real-like
// stand-ins at scale 0.05, so a change to the generator or to anything it
// calls (the road generator's nearest-neighbour tree, the crossing grid,
// the rand draws) that moves one bit of a dataset fails here. A change
// that means to move a dataset records the new hash with its reason.
//
// Other architectures may fuse multiply-adds and move last bits of the
// coordinates, so the hashes are pinned on amd64 only.
func TestGeneratorFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes are pinned on amd64; GOARCH is %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("generates six datasets of up to 7,500 road vertices")
	}
	bench := func(name string, seed int64, dist Distribution) func() (*model.Dataset, error) {
		return func() (*model.Dataset, error) {
			return Synthetic(Config{Name: name, Seed: seed, Dist: dist,
				RoadVertices: 7500, SocialUsers: 7500, POIs: 2500})
		}
	}
	cases := []struct {
		name string
		gen  func() (*model.Dataset, error)
		want string
	}{
		{"uni_cold", bench("uni_cold", 101, Uniform),
			"4aa0b5c2f5dedbb6dce4effc9dc1e8fdb311a5415fb6e34e3cd6eea9b96b733c"},
		{"zipf_hot", bench("zipf_hot", 102, Zipf),
			"2ef46378144d19b2ac3752e8969aba69bb9d8def4f7bcc09b53db5248867e01a"},
		{"churn_wal", bench("churn_wal", 103, Uniform),
			"75bd6065be8bc67e954bb4f1dffbf9a075c2d6f53b01372e89e311dc712ec976"},
		{"serve_open", bench("serve_open", 102, Zipf),
			"bf4021125b588e003a35ae3127ec8303598aeba0587528da238a3d47c6c4433f"},
		{"Bri+Cal@0.05", func() (*model.Dataset, error) { return RealLike(BrightkiteCalifornia(1, 0.05)) },
			"3701169439e47bde1cbb9d0c4df4f47d5e05edd71ffcb691e77e34961b973b9f"},
		{"Gow+Col@0.05", func() (*model.Dataset, error) { return RealLike(GowallaColorado(1, 0.05)) },
			"b8748011c6fe5fa8ef8986ad21fae09beaef8834f308bf2287f99e869a829cd6"},
	}
	for _, c := range cases {
		ds, err := c.gen()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := sha256.New()
		if err := ds.Save(h); err != nil {
			t.Fatalf("%s: Save: %v", c.name, err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: dataset hash %s, want %s", c.name, got, c.want)
		}
	}
}
