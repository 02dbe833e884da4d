package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"columnsgd/internal/cluster"
	"columnsgd/internal/wire"
)

// linkLogCap bounds each link's event log. Capping per link (not
// globally) keeps the log deterministic: a link's first N events are a
// pure function of the seed, while a globally capped log would keep a
// goroutine-arrival-dependent subset.
const linkLogCap = 64

// Injector owns the fault schedule for a set of master↔worker links and
// hands out cluster.Client decorators. One injector per training run; the
// same injector must wrap every transport (RPC links, scorer fan-out) so
// the whole run replays from one seed.
type Injector struct {
	spec    Spec
	enabled atomic.Bool

	mu    sync.Mutex
	links map[int]*link

	calls          atomic.Int64
	dropped        atomic.Int64
	droppedReplies atomic.Int64
	duplicated     atomic.Int64
	delayed        atomic.Int64
	reordered      atomic.Int64
	corrupted      atomic.Int64
	truncated      atomic.Int64
	severedCalls   atomic.Int64
	crashedCalls   atomic.Int64
	crashes        atomic.Int64
	severed        atomic.Int64
	restarts       atomic.Int64
}

// NewInjector builds an enabled injector for spec.
func NewInjector(spec Spec) *Injector {
	in := &Injector{spec: spec, links: make(map[int]*link)}
	in.enabled.Store(true)
	return in
}

// Spec returns the schedule the injector replays.
func (in *Injector) Spec() Spec { return in.spec }

// SetEnabled turns injection on or off. Harnesses disable injection while
// loading data (loads are not idempotent) and re-enable it for training;
// because the toggle happens at the same point in the call sequence every
// run, determinism is preserved.
func (in *Injector) SetEnabled(v bool) { in.enabled.Store(v) }

// Counters snapshots the fault counters.
func (in *Injector) Counters() Snapshot {
	return Snapshot{
		Calls:          in.calls.Load(),
		Dropped:        in.dropped.Load(),
		DroppedReplies: in.droppedReplies.Load(),
		Duplicated:     in.duplicated.Load(),
		Delayed:        in.delayed.Load(),
		Reordered:      in.reordered.Load(),
		Corrupted:      in.corrupted.Load(),
		Truncated:      in.truncated.Load(),
		SeveredCalls:   in.severedCalls.Load(),
		CrashedCalls:   in.crashedCalls.Load(),
		Crashes:        in.crashes.Load(),
		Severed:        in.severed.Load(),
		Restarts:       in.restarts.Load(),
	}
}

// Schedule returns the injected-event log ("link 1 msg 40: crash", ...)
// merged across links and ordered by (link, message index) — the
// replayable trace a failing test prints alongside the seed. The
// ordering is deterministic even though links run concurrently, because
// each event carries its link-local position.
func (in *Injector) Schedule() []string {
	in.mu.Lock()
	links := make([]*link, 0, len(in.links))
	for _, l := range in.links {
		links = append(links, l)
	}
	in.mu.Unlock()
	sort.Slice(links, func(i, j int) bool { return links[i].id < links[j].id })
	var out []string
	for _, l := range links {
		l.mu.Lock()
		for _, ev := range l.events {
			out = append(out, fmt.Sprintf("link %d msg %d: %s", l.id, ev.msg, ev.what))
		}
		if l.logCut {
			out = append(out, fmt.Sprintf("link %d: ... (log truncated)", l.id))
		}
		l.mu.Unlock()
	}
	return out
}

// WrapClient decorates one worker link. The same linkID always maps to
// the same deterministic stream, so wrapping the same link twice shares
// state (message counter, sever/crash status).
func (in *Injector) WrapClient(linkID int, c cluster.Client) cluster.Client {
	return &client{inner: c, link: in.linkFor(linkID)}
}

// Wrap decorates a full client slice, link i = worker i.
func (in *Injector) Wrap(clients []cluster.Client) []cluster.Client {
	out := make([]cluster.Client, len(clients))
	for i, c := range clients {
		out[i] = in.WrapClient(i, c)
	}
	return out
}

// RestartLink models the recovery side of §X: a restarted worker comes
// back reachable, clearing a crash and any sever marked HealOnRestart.
// Provider.Restart calls this after the inner restart succeeds.
func (in *Injector) RestartLink(linkID int) {
	l := in.linkFor(linkID)
	l.mu.Lock()
	l.crashed = false
	if l.severed && l.severHeals {
		l.severed = false
	}
	l.mu.Unlock()
	in.restarts.Add(1)
}

func (in *Injector) linkFor(id int) *link {
	in.mu.Lock()
	defer in.mu.Unlock()
	if l, ok := in.links[id]; ok {
		return l
	}
	l := &link{
		id:  id,
		inj: in,
		// Decorrelate per-link streams; the offset constant is arbitrary
		// but fixed so schedules replay across processes.
		rng: rand.New(rand.NewSource(in.spec.Seed + int64(id)*0x9E3779B9)),
	}
	for _, ev := range in.spec.Severs {
		if ev.Link == id {
			l.severs = append(l.severs, linkEvent{at: ev.AtMsg, heal: ev.HealOnRestart})
		}
	}
	for _, ev := range in.spec.Crashes {
		if ev.Link == id {
			l.crashesAt = append(l.crashesAt, linkEvent{at: ev.AtMsg})
		}
	}
	in.links[id] = l
	return l
}

// linkEvent is a scheduled sever/crash; done prevents a healed fault from
// re-triggering on the same threshold.
type linkEvent struct {
	at   int64
	heal bool
	done bool
}

// link is the per-worker deterministic fault stream. All calls on a link
// serialize on mu, so the draw sequence depends only on the message index
// — never on goroutine interleaving across links.
type link struct {
	id  int
	inj *Injector

	mu         sync.Mutex
	rng        *rand.Rand
	msgs       int64
	severed    bool
	severHeals bool
	crashed    bool
	severs     []linkEvent
	crashesAt  []linkEvent
	events     []logEvent
	logCut     bool
}

// logEvent is one injected fault in a link's deterministic log.
type logEvent struct {
	msg  int64
	what string
}

// recordLocked appends to the link's log. Caller holds l.mu.
func (l *link) recordLocked(msg int64, what string) {
	if len(l.events) < linkLogCap {
		l.events = append(l.events, logEvent{msg: msg, what: what})
	} else {
		l.logCut = true
	}
}

// draws is one message's complete fault decision, drawn in a fixed order
// with a fixed number of rng consumptions so the stream stays aligned
// whatever subset of faults the spec enables.
type draws struct {
	drop, dropReq     bool
	dup               bool
	delay             time.Duration
	reorder           bool
	corrupt, truncate bool
	mangle            float64
}

func (l *link) draw(spec Spec, msg int64) draws {
	var d draws
	fDrop := l.rng.Float64()
	fSide := l.rng.Float64()
	fDup := l.rng.Float64()
	fDelay := l.rng.Float64()
	fDelayAmt := l.rng.Float64()
	fReorder := l.rng.Float64()
	fCorrupt := l.rng.Float64()
	fTruncate := l.rng.Float64()
	d.mangle = l.rng.Float64()

	d.drop = fDrop < spec.Drop
	if spec.DropEvery > 0 && msg%spec.DropEvery == spec.DropEvery-1 {
		d.drop = true
	}
	d.dropReq = fSide < 0.5
	d.dup = fDup < spec.Dup
	if fDelay < spec.Delay {
		d.delay = time.Duration(fDelayAmt * float64(spec.maxDelay()))
		if d.delay <= 0 {
			d.delay = time.Microsecond
		}
	}
	d.reorder = fReorder < spec.Reorder
	d.corrupt = fCorrupt < spec.Corrupt
	d.truncate = fTruncate < spec.Truncate
	return d
}

// checkDownLocked fires due sever/crash events and reports standing
// link-down state. Caller holds l.mu.
func (l *link) checkDownLocked(msg int64) *Fault {
	in := l.inj
	for i := range l.crashesAt {
		ev := &l.crashesAt[i]
		if !ev.done && msg >= ev.at {
			ev.done = true
			l.crashed = true
			in.crashes.Add(1)
			l.recordLocked(msg, "crash")
		}
	}
	for i := range l.severs {
		ev := &l.severs[i]
		if !ev.done && msg >= ev.at {
			ev.done = true
			l.severed = true
			l.severHeals = ev.heal
			in.severed.Add(1)
			l.recordLocked(msg, "sever")
		}
	}
	if l.crashed {
		in.crashedCalls.Add(1)
		return &Fault{Kind: ErrCrashed, Link: l.id, Msg: msg}
	}
	if l.severed {
		in.severedCalls.Add(1)
		return &Fault{Kind: ErrLinkSevered, Link: l.id, Msg: msg}
	}
	return nil
}

// client decorates one cluster.Client with the link's fault stream.
type client struct {
	inner cluster.Client
	link  *link
}

// Call implements cluster.Client. At most one injected fault fires per
// message, chosen with a fixed priority (down-state, drop, corrupt,
// truncate, then the non-erroring dup/delay/reorder).
func (c *client) Call(method string, args, reply interface{}) error {
	l := c.link
	in := l.inj
	if !in.enabled.Load() {
		return c.inner.Call(method, args, reply)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	msg := l.msgs
	l.msgs++
	in.calls.Add(1)

	if f := l.checkDownLocked(msg); f != nil {
		return f
	}
	d := l.draw(in.spec, msg)

	if d.drop {
		in.dropped.Add(1)
		if d.dropReq {
			l.recordLocked(msg, "drop request "+method)
			return &Fault{Kind: ErrDropped, Link: l.id, Msg: msg}
		}
		// Reply lost: the worker executes the request (at-least-once);
		// the master sees only the timeout-shaped error.
		in.droppedReplies.Add(1)
		l.recordLocked(msg, "drop reply "+method)
		_ = c.inner.Call(method, args, nil)
		return &Fault{Kind: ErrDropped, Link: l.id, Msg: msg}
	}
	if d.corrupt {
		in.corrupted.Add(1)
		l.recordLocked(msg, "corrupt "+method)
		return &Fault{Kind: ErrCorrupted, Link: l.id, Msg: msg, Cause: mangleError(c.codec(), method, args, d.mangle, false)}
	}
	if d.truncate {
		in.truncated.Add(1)
		l.recordLocked(msg, "truncate "+method)
		return &Fault{Kind: ErrTruncated, Link: l.id, Msg: msg, Cause: mangleError(c.codec(), method, args, d.mangle, true)}
	}
	if d.dup {
		// At-least-once delivery: the worker dispatches the message twice;
		// the caller sees the second reply. If the first copy fails at the
		// transport, surface that error (the link is really broken).
		in.duplicated.Add(1)
		l.recordLocked(msg, "duplicate "+method)
		if err := c.inner.Call(method, args, nil); err != nil {
			return err
		}
	}
	if d.delay > 0 {
		in.delayed.Add(1)
		time.Sleep(d.delay)
	}
	if d.reorder {
		// Hold the message a full window so concurrent messages on other
		// links overtake it — reordering as the engines observe it.
		in.reordered.Add(1)
		l.recordLocked(msg, "reorder "+method)
		time.Sleep(in.spec.maxDelay())
	}
	return c.inner.Call(method, args, reply)
}

// codec reports the codec of the decorated transport's session, so
// injected corruption exercises the format actually on the wire.
func (c *client) codec() wire.Codec {
	if cc, ok := c.inner.(cluster.CodecCarrier); ok {
		return cc.WireCodec()
	}
	return wire.Default
}

// mangleError runs the real codec over a mangled copy of the request
// frame and returns the decode error a receiver would report — so chaos
// corruption surfaces the genuine cluster.ErrDecode taxonomy (wrapping
// wire.ErrCorrupt/ErrTruncated under the compact codec), not a
// synthetic stand-in. mangle in [0,1) picks the byte position or cut.
func mangleError(codec wire.Codec, method string, args interface{}, mangle float64, truncate bool) error {
	raw, err := cluster.EncodeRequestFrame(codec, method, args)
	if err != nil || len(raw) == 0 {
		// Nothing to mangle; the frame is rejected as a checksum failure
		// would be, without a codec-level cause.
		return nil
	}
	if truncate {
		cut := 1 + int(mangle*float64(len(raw)-1))
		if cut >= len(raw) {
			cut = len(raw) - 1
		}
		raw = raw[:cut]
	} else {
		pos := int(mangle * float64(len(raw)))
		if pos >= len(raw) {
			pos = len(raw) - 1
		}
		raw[pos] ^= 0xA5
	}
	if _, _, derr := cluster.DecodeRequestFrame(codec, raw); derr != nil {
		return derr
	}
	// The mangling happened to survive decoding; the frame is still
	// rejected (a transport checksum would catch it) but carries no
	// codec cause.
	return nil
}

// Bytes implements cluster.Client.
func (c *client) Bytes() int64 { return c.inner.Bytes() }

// Messages implements cluster.Client.
func (c *client) Messages() int64 { return c.inner.Messages() }

// Close implements cluster.Client.
func (c *client) Close() error { return c.inner.Close() }
