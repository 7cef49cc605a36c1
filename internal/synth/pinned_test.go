package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/dataset"
)

// fleetDigestPins are sha256 digests of the JSON encoding of
// GenerateFleet output (every field, floats in shortest round-trip
// form, so any bit change in a curve, a draw or an ID moves the
// digest). 5,000 servers span four full 1024-server shards and a
// partial fifth.
var fleetDigestPins = []struct {
	seed   int64
	digest string
}{
	{1, "cd7969d5ec841994c95654f03eb1f6434f9ec05d48233eca7d5e4f2c49c37538"},
	{7, "4e8c7a7b8d2c834ffc33183a6b682d62ced7bf3b6623b7b6dafb20eff96f4399"},
	{2024, "f798000bebc89d8de89dd11c07aa776cf5ca3c35fcfc2d085c4f8c2df4f21928"},
}

// TestGenerateFleetDigestPinned pins the synthesizer's output bit for
// bit: solver, RNG-stream order, materialization and fleet IDs.
func TestGenerateFleetDigestPinned(t *testing.T) {
	for _, pin := range fleetDigestPins {
		rs, err := GenerateFleet(FleetConfig{Seed: pin.seed, Servers: 5_000})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := dataset.WriteJSON(h, rs); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != pin.digest {
			t.Errorf("seed %d: fleet digest %s, pinned %s", pin.seed, got, pin.digest)
		}
	}
}
