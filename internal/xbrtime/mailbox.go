package xbrtime

import "sync"

// Mailbox is the table behind every keyed wait of the runtime —
// completion flags and dissemination-barrier slots — and of core's dry
// run, which replays the same waits on one goroutine. A poster records
// an arrival under a key; the one PE that owns the key takes it; a PE
// that finds nothing to take records the key it sleeps on, so the
// poster learns it must wake exactly that PE. Per key the table holds
// the count of posts not yet taken, and the latest arrival and latest
// poster since the key last drained; a drained key is dropped, so keys
// that never recur (a barrier's epoch) do not pile up. It holds no
// lock.
type Mailbox[K comparable] struct {
	cells  map[K]mailCell
	sleep  []K // sleep[r] is the key PE r sleeps on, while asleep[r]
	asleep []bool
}

type mailCell struct {
	pending int
	at      uint64
	by      int
}

// NewMailbox returns an empty table for n PEs.
func NewMailbox[K comparable](n int) *Mailbox[K] {
	return &Mailbox[K]{cells: map[K]mailCell{}, sleep: make([]K, n), asleep: make([]bool, n)}
}

// Post records a post on k, which PE owner takes, arriving at cycle at
// from PE by. It reports whether owner sleeps on k; the table then
// forgets the sleep, and the caller wakes the PE.
func (m *Mailbox[K]) Post(owner int, k K, at uint64, by int) (wake bool) {
	c := m.cells[k]
	c.pending++
	c.at = max(c.at, at)
	c.by = by
	m.cells[k] = c
	if m.asleep[owner] && m.sleep[owner] == k {
		m.asleep[owner] = false
		return true
	}
	return false
}

// Take consumes one post on k and returns the latest arrival and poster
// among the posts made since k was last drained; ok is false when no
// post is pending.
func (m *Mailbox[K]) Take(k K) (at uint64, by int, ok bool) {
	c, ok := m.cells[k]
	if !ok {
		return 0, 0, false
	}
	if c.pending--; c.pending == 0 {
		delete(m.cells, k)
	} else {
		m.cells[k] = c
	}
	return c.at, c.by, true
}

// Sleep records that PE rank sleeps until a post on k.
func (m *Mailbox[K]) Sleep(rank int, k K) {
	m.sleep[rank], m.asleep[rank] = k, true
}

// Sleeper returns the key PE rank sleeps on, if it sleeps.
func (m *Mailbox[K]) Sleeper(rank int) (k K, ok bool) {
	if !m.asleep[rank] {
		return k, false
	}
	return m.sleep[rank], true
}

// Reset forgets every post and every sleep.
func (m *Mailbox[K]) Reset() {
	clear(m.cells)
	clear(m.asleep)
}

// rendezvous is a Mailbox shared by PE goroutines: one mutex, one
// condition variable per PE to sleep on, and the broken flag Run sets
// when a PE fails so sleepers unwind instead of deadlocking. The flag
// layer and the dissemination barrier each own one.
type rendezvous[K comparable] struct {
	mu     sync.Mutex
	conds  []sync.Cond // conds[r] is where PE r sleeps, all on mu
	box    *Mailbox[K]
	broken bool
}

func newRendezvous[K comparable](n int) *rendezvous[K] {
	r := &rendezvous[K]{conds: make([]sync.Cond, n), box: NewMailbox[K](n)}
	for i := range r.conds {
		r.conds[i].L = &r.mu
	}
	return r
}

func (r *rendezvous[K]) breakAll() {
	r.mu.Lock()
	if !r.broken { // survivors of a failure each break again
		r.broken = true
		for i := range r.conds {
			r.conds[i].Signal()
		}
	}
	r.mu.Unlock()
}

// sleeper returns the key PE rank sleeps on, if any.
func (r *rendezvous[K]) sleeper(rank int) (K, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.box.Sleeper(rank)
}

// post records pe's post on k, owned by PE owner, arriving at cycle at,
// and wakes owner if it sleeps on k — in lockstep mode re-queuing it
// with the scheduler at once (see lockstep.wake).
func (r *rendezvous[K]) post(pe *PE, owner int, k K, at uint64) {
	r.mu.Lock()
	if r.box.Post(owner, k, at, pe.rank) {
		pe.lsWake(owner, at)
		r.conds[owner].Signal()
	}
	r.mu.Unlock()
}

// wait blocks until a post on k is pending, takes it and advances pe's
// clock to its arrival. It returns the poster, or false when the
// rendezvous was broken.
func (r *rendezvous[K]) wait(pe *PE, k K) (by int, ok bool) {
	r.mu.Lock()
	blocked := false
	for !r.broken {
		if at, by, ok := r.box.Take(k); ok {
			r.mu.Unlock()
			pe.advanceTo(at)
			if blocked {
				pe.lsUnblock()
			}
			return by, true
		}
		if !blocked {
			// Record the key so the poster can wake us, then hand the
			// execution token back.
			r.box.Sleep(pe.rank, k)
			blocked = true
			if pe.lsBlock(&r.mu) {
				continue // mu was dropped meanwhile: look again
			}
		}
		r.conds[pe.rank].Wait()
	}
	r.mu.Unlock()
	if blocked {
		pe.lsUnblock()
	}
	return -1, false
}
