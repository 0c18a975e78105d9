// Package vm implements the virtual-memory substrate of the simulator: an
// address space of VMAs backed by a software page table whose PTEs carry
// the bits the migration and fault paths read (present, dirty and
// poisoned). The write tracking of MTM's asynchronous copy (§7.2) is not a
// PTE bit here: the migrate package's cost model prices it (DirtyFaultCost
// per write fault at the mechanism's WriteRate).
//
// The simulated MMU (VMA.TouchN) sets the dirty bit as hardware would and
// records each page's access count for the interval. No accessed bit is
// stored: profilers observe it only through ObserveScans, a model of N
// read-and-clear scans over the page's interval count, which preserves
// the information loss the paper's profiling mechanisms are designed
// around: a single PTE scan reveals "accessed since last scan", never an
// access count.
package vm

// PTE is one software page-table entry. Only the flag bits are modelled;
// the physical frame is tracked separately as a tier.NodeID per page.
type PTE uint8

// PTE flag bits. Bit names follow x86-64 usage.
const (
	// Present means the page has been allocated a physical frame.
	Present PTE = 1 << iota
	// Dirty is set by the MMU on every write.
	Dirty
	// Poisoned marks a page hit by an uncorrectable memory error, the
	// analogue of Linux HWPOISON soft-offlining: the frame is dead, the
	// mapping is gone (Present is cleared alongside), and the next access
	// takes a recovery fault instead of a machine-check crash.
	Poisoned
)

// Has reports whether all bits in mask are set.
func (p PTE) Has(mask PTE) bool { return p&mask == mask }

// Set returns p with the mask bits set.
func (p PTE) Set(mask PTE) PTE { return p | mask }

// Clear returns p with the mask bits cleared.
func (p PTE) Clear(mask PTE) PTE { return p &^ mask }
