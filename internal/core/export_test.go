package core

// PoisonParents overwrites every slot of sc's retained parent array, its
// whole capacity, with v: the next labeling that reuses sc must read only
// slots its own scan created.
func PoisonParents(sc *Scratch, v Label) {
	p := sc.p[:cap(sc.p)]
	for i := range p {
		p[i] = v
	}
}
