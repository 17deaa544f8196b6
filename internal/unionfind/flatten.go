package unionfind

// Flatten resolves labels lo..hi of the equivalence array p in place and
// numbers their set representatives consecutively after k, returning the
// last final label assigned (k if none). This is Algorithm 3 of the paper
// ("FLATTEN"): a single forward sweep that works because REM unions
// preserve p[i] <= i, so when the sweep reaches i, p[p[i]] already holds the
// final label of i's representative.
//
// A dense label space is one call, Flatten(p, 1, count, 0), whose result is
// the component count. The parallel algorithm's label space is sparse —
// every chunk draws from its own range, and most slots between ranges were
// never created — so it calls Flatten once per created range in increasing
// order, passing each call's result on as the next k. Slots outside the
// ranges are neither read nor written, so they may hold anything, and
// every parent a created label points at is itself created and lower, so
// its final label is already set. p[0] is the background slot and is never
// touched.
func Flatten(p []Label, lo, hi, k Label) Label {
	for i := lo; i <= hi; i++ {
		if p[i] < i {
			p[i] = p[p[i]]
		} else {
			k++
			p[i] = k
		}
	}
	return k
}
