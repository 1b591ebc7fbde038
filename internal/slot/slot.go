// Package slot numbers what the control plane keeps one of per chain —
// the orchestrator's record, the chain's cluster, slice, flow rules and
// trace index — and per VNF instance densely, so each lives in a table by
// slot, not a map by ID: a map keeps the buckets its peak gave it, a
// table reuses its entries. A freed slot is reused only once its table
// is full, so a table reaches its length while a fleet first grows and
// never regrows when the fleet empties and fills again. An ID carries
// its slot in the low Bits bits and the slot's generation above them, so
// an ID from before a reuse never names the new holder.
package slot

// Bits is how many low bits of an ID, less one, hold its slot: a table
// holds at most 1<<Bits entries, and an ID fits 31 bits, which the trace
// store packs, for 1<<(31-Bits) generations of its slot.
const Bits = 16

// ID returns the ID of slot s at generation gen: 1+s at generation 0.
func ID(s int, gen uint32) int { return 1 + s + int(gen)<<Bits }

// Of returns the slot and the generation a positive ID names.
func Of(id int) (s int, gen uint32) { return (id - 1) & (1<<Bits - 1), uint32((id - 1) >> Bits) }

// Held counts the entries of table that are not zero.
func Held[T comparable](table []T) (n int) {
	var zero T
	for _, e := range table {
		if e != zero {
			n++
		}
	}
	return n
}

// Widen returns table long enough to index i, its length doubled from 8
// until it is, so tables indexed by the same slots reach one length.
func Widen[T any](table []T, i int) []T {
	n := max(len(table), 8)
	for n <= i {
		n *= 2
	}
	if n == len(table) {
		return table
	}
	grown := make([]T, n)
	copy(grown, table)
	return grown
}

// Free hands out the slots of a table: a fresh one while the table has
// one, else the one freed longest ago, so generations climb as slowly as
// the freed slots allow, else a fresh one past the table's end for Widen
// to make room for. The zero Free starts at slot 0.
type Free struct {
	next int     // the slots below next have been handed out
	list []int32 // freed slots, oldest first from head
	head int
}

// Take returns a slot for a table of length n.
func (f *Free) Take(n int) int {
	if f.next < n || f.head == len(f.list) {
		f.next++
		return f.next - 1
	}
	s := f.list[f.head]
	if f.head++; f.head == len(f.list) {
		f.list, f.head = f.list[:0], 0
	}
	return int(s)
}

// Put frees slot s for reuse.
func (f *Free) Put(s int) {
	if f.head > 0 && len(f.list) == cap(f.list) {
		f.list, f.head = f.list[:copy(f.list, f.list[f.head:])], 0
	}
	f.list = append(f.list, int32(s))
}

// Unget gives back s, taken and never used: the last fresh slot taken is
// fresh again, so a failed build numbers nothing.
func (f *Free) Unget(s int) {
	if s == f.next-1 {
		f.next--
	} else {
		f.Put(s)
	}
}
