package main

import "testing"

// pinnedDigests is the SHA-256 of every body each workload sends with the
// default seed. A mismatch means a change altered the benchmark's inputs,
// so its numbers no longer compare with earlier runs.
var pinnedDigests = map[string]string{
	wlLarge: "0e37bbf28c6a1c88c96f1050aa5500167092041aaa6b227399856d0f76b4b6e7",
	wlMix:   "344d5ec1b6f52f627008e1719259ce135f187ef224556b59c00d34fbc8e12466",
	wlJobs:  "f48be65e0ceb1fbf1065b213d700805d20e183cf750bb8a08fd5a08dfa12a887",
}

func TestInputDigestsPinned(t *testing.T) {
	for wl, want := range pinnedDigests {
		in, err := generate(wl, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		if got := in.digest(); got != want {
			t.Errorf("%s inputs for seed %d: sha256 %s, pinned %s", wl, defaultSeed, got, want)
		}
	}
}

func TestHeldOutSeedDiffers(t *testing.T) {
	for _, wl := range []string{wlMix, wlJobs} {
		in, err := generate(wl, heldOutSeed)
		if err != nil {
			t.Fatal(err)
		}
		if in.digest() == pinnedDigests[wl] {
			t.Errorf("%s: held-out seed %d generates the default seed's inputs", wl, heldOutSeed)
		}
	}
}
