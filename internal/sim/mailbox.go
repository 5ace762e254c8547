package sim

// Msg is a tagged message delivered through a Mailbox.  Payload values are
// shared by reference; the simulated transfer cost is modeled separately
// by the network layer, so sharing is safe and keeps memory bounded even
// when tens of thousands of ranks exchange large logical volumes.
type Msg struct {
	Src   int
	Tag   int
	Bytes int64
	Val   any
}

type mboxKey struct {
	src int
	tag int
}

// Mailbox is a per-receiver store of tagged messages with blocking receive.
// It implements MPI-style (source, tag) matching; each (source, tag) pair
// delivers in FIFO order.
type Mailbox struct {
	msgs    map[mboxKey]mqueue
	waiting map[mboxKey]*Proc
	slot    map[mboxKey]Msg // message handed directly to a waiting receiver
}

// mqueue holds the messages queued on one key.  The head is stored inline
// so the common case — collective tags are unique per round, so most keys
// only ever see one message — allocates no slice.
type mqueue struct {
	head Msg
	rest []Msg
}

// NewMailbox returns an empty mailbox.
func NewMailbox() *Mailbox {
	return &Mailbox{
		msgs:    make(map[mboxKey]mqueue),
		waiting: make(map[mboxKey]*Proc),
		slot:    make(map[mboxKey]Msg),
	}
}

// Put delivers m, waking a matching blocked receiver if one exists.
func (b *Mailbox) Put(m Msg) {
	k := mboxKey{m.Src, m.Tag}
	if p, ok := b.waiting[k]; ok {
		delete(b.waiting, k)
		b.slot[k] = m
		p.Wake()
		return
	}
	if q, ok := b.msgs[k]; ok {
		q.rest = append(q.rest, m)
		b.msgs[k] = q
	} else {
		b.msgs[k] = mqueue{head: m}
	}
}

// Get blocks p until a message from src with the given tag is available
// and returns it.  At most one process may wait on a given (src, tag) pair
// at a time.
func (b *Mailbox) Get(p *Proc, src, tag int) Msg {
	k := mboxKey{src, tag}
	if q, ok := b.msgs[k]; ok {
		m := q.head
		if len(q.rest) == 0 {
			delete(b.msgs, k)
		} else {
			q.head, q.rest = q.rest[0], q.rest[1:]
			b.msgs[k] = q
		}
		return m
	}
	if _, dup := b.waiting[k]; dup {
		panic("sim: concurrent Mailbox.Get on same (src, tag)")
	}
	b.waiting[k] = p
	p.park()
	m := b.slot[k]
	delete(b.slot, k)
	return m
}

// Pending reports the number of queued (undelivered) messages.
func (b *Mailbox) Pending() int {
	n := 0
	for _, q := range b.msgs {
		n += 1 + len(q.rest)
	}
	return n
}
