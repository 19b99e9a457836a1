//go:build amd64 && !purego

package vafile

// sweepPageLanesAVX2 is sweepPageLanes, a laneTerm to one register: the same
// arguments, the same bits. Every cell must be below ncells and t must hold
// dim rows of ncells terms — it reads exactly those and the len(cells)/dim
// whole items of cells. VMINPD returns its second operand when either is
// NaN, where Go's min returns the NaN: the bits agree as long as a NaN term
// fills its row, as a NaN coordinate's terms do (New refuses non-finite
// bounds, and a term of a number is a number), because then every sum of
// its lane is NaN.
//
//go:noescape
func sweepPageLanesAVX2(t []laneTerm, cells []uint8, dim, ncells int, b *laneBounds)
