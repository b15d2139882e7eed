package rt

import "testing"

// TestRandGolden pins the first outputs of the shared generators: torture
// schedules and their hashes, bench key streams and the cluster ring's
// slot placement all derive from them, so any change here changes every
// seeded run.
func TestRandGolden(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"SplitMix64(0)", SplitMix64(0), 0xe220a8397b1dcdaf},
		{"SplitMix64(1)", SplitMix64(1), 0x910a2dec89025cc1},
		{"SplitMix64(2)", SplitMix64(2), 0x975835de1c9756ce},
		{"SplitMix64(1e9+7)", SplitMix64(1e9 + 7), 0x1166638885f5f0e},
		{"Mix64(0, 0)", Mix64(0, 0), 0xe220a8397b1dcdaf},
		{"Mix64(1, 0)", Mix64(1, 0), 0x910a2dec89025cc1},
		{"Mix64(1, 1)", Mix64(1, 1), 0xbeeb8da1658eec67},
		{"Mix64(7, 0xC1A5)", Mix64(7, 0xC1A5), 0x7966598db8494ed2},
	} {
		if c.got != c.want {
			t.Errorf("%s = %#x, want %#x", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		seed uint64
		want []uint64
	}{
		{Mix64(1, 0), []uint64{0xaa435a58c281a070, 0x9644683ff1db4520, 0xbac35e343f7b5b16, 0x3ab2d11a4c63cf06}},
		{0x4157, []uint64{0x4d7b4e0aa12e7875, 0x44320485e22403c5}},
	} {
		r := NewPCG(c.seed)
		for i, want := range c.want {
			if got := r.Next(); got != want {
				t.Errorf("NewPCG(%#x) output %d = %#x, want %#x", c.seed, i, got, want)
			}
		}
	}
}
