// Package chaos is a seeded, deterministic fault-injecting decorator for
// the cluster transport — the adversarial wire the paper's fault-tolerance
// story (§X: task restart, worker reload with a reinitialized model
// partition, no checkpointing) is supposed to survive. It wraps any
// cluster.Client (channel or TCP) and can drop, delay, duplicate, reorder,
// corrupt, and truncate messages, sever individual master↔worker links,
// and crash a worker at a chosen message boundary.
//
// Every decision is drawn from a per-link rand.Rand derived from a single
// seed, and each link serializes its calls, so a fault schedule is a pure
// function of (seed, link, message index) — independent of goroutine
// scheduling. A failing chaos run therefore reproduces bit-for-bit from
// the seed printed in the failure message (see TESTING.md).
//
// Fault taxonomy and how the engines observe each fault:
//
//   - drop, corrupt, truncate → a typed transient error; the ColumnSGD
//     master retries the task on the same worker (§X task failure), and
//     the RowSGD engines retry the call.
//   - delay, reorder → late delivery; no error, only straggling.
//   - duplicate → at-least-once delivery; the worker dispatches twice.
//   - sever, crash → errors wrapping cluster.ErrWorkerDown; the ColumnSGD
//     master restarts the worker and reloads its shard. A sever without
//     HealOnRestart stays broken across restarts, which must surface as a
//     typed error — never a hang or silent divergence.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"columnsgd/internal/cluster"
)

// Fault sentinels. Injected errors wrap ErrInjected plus the specific
// kind; sever and crash faults additionally wrap cluster.ErrWorkerDown so
// the engines' recovery machinery treats them as machine failures.
var (
	// ErrInjected is the root of every chaos-injected error.
	ErrInjected = errors.New("chaos: injected fault")
	// ErrDropped marks a lost request or reply.
	ErrDropped = errors.New("chaos: message dropped")
	// ErrCorrupted marks a frame rejected after byte corruption.
	ErrCorrupted = errors.New("chaos: frame corrupted")
	// ErrTruncated marks a frame rejected after truncation.
	ErrTruncated = errors.New("chaos: frame truncated")
	// ErrLinkSevered marks a call on a severed master↔worker link.
	ErrLinkSevered = errors.New("chaos: link severed")
	// ErrCrashed marks a call to a crashed worker.
	ErrCrashed = errors.New("chaos: worker crashed")
)

// Fault is the error type every injected failure returns. It records
// where in the schedule the fault fired so failures are attributable.
type Fault struct {
	// Kind is one of the package sentinels (ErrDropped, ...).
	Kind error
	// Link is the worker link the fault fired on.
	Link int
	// Msg is the link-local message index (0-based).
	Msg int64
	// Cause carries the underlying transport error where one exists
	// (e.g. the cluster.ErrDecode a corrupted frame produced).
	Cause error
}

// Error implements error.
func (f *Fault) Error() string {
	s := fmt.Sprintf("%v (link %d, msg %d)", f.Kind, f.Link, f.Msg)
	if f.Cause != nil {
		s += ": " + f.Cause.Error()
	}
	return s
}

// Unwrap exposes the sentinel chain for errors.Is.
func (f *Fault) Unwrap() []error {
	out := []error{ErrInjected, f.Kind}
	if f.Kind == ErrLinkSevered || f.Kind == ErrCrashed {
		out = append(out, cluster.ErrWorkerDown)
	}
	if f.Cause != nil {
		out = append(out, f.Cause)
	}
	return out
}

// Sever schedules an asymmetric partition: once the link's message
// counter reaches AtMsg, every call on that link fails until (optionally)
// the worker is restarted.
type Sever struct {
	// Link is the worker link to sever.
	Link int
	// AtMsg severs when the link-local message counter reaches this value.
	AtMsg int64
	// HealOnRestart repairs the link when the worker restarts; without it
	// the partition is permanent and the run must fail with a typed error.
	HealOnRestart bool
}

// Crash schedules a worker crash at a message boundary: the worker's
// state is lost (the provider restart builds a fresh worker) and every
// call fails with ErrCrashed until the master restarts it.
type Crash struct {
	Link  int
	AtMsg int64
}

// Spec is a replayable fault schedule: probabilities for the stochastic
// faults plus explicitly scheduled severs and crashes, all driven by Seed.
type Spec struct {
	// Seed derives every link's random stream. The same Spec reproduces
	// the same schedule bit for bit.
	Seed int64
	// Drop is P(message lost). The side (request vs reply) is drawn too;
	// a lost reply means the worker executed but the master never heard.
	Drop float64
	// DropEvery deterministically drops every Nth message on each link
	// (0 disables) — useful for exact-count fault tests.
	DropEvery int64
	// Dup is P(message delivered twice) — at-least-once semantics.
	Dup float64
	// Delay is P(message delayed); the amount is uniform in (0, MaxDelay].
	Delay float64
	// Reorder is P(message held a full MaxDelay window, so messages on
	// other links overtake it). On a serial RPC link reordering manifests
	// as late delivery; cross-link reordering emerges from the engines'
	// concurrent per-worker calls.
	Reorder float64
	// Corrupt is P(frame bytes flipped). The injector mangles the real
	// encoded request frame and surfaces the codec's actual decode error.
	Corrupt float64
	// Truncate is P(frame cut short), surfacing the codec's error.
	Truncate float64
	// MaxDelay bounds injected delays (default 1ms).
	MaxDelay time.Duration
	// Severs and Crashes are the scheduled, non-stochastic faults.
	Severs  []Sever
	Crashes []Crash
}

func (s Spec) maxDelay() time.Duration {
	if s.MaxDelay <= 0 {
		return time.Millisecond
	}
	return s.MaxDelay
}

// Stochastic reports whether any probabilistic fault is enabled.
func (s Spec) Stochastic() bool {
	return s.Drop > 0 || s.Dup > 0 || s.Delay > 0 || s.Reorder > 0 ||
		s.Corrupt > 0 || s.Truncate > 0 || s.DropEvery > 0
}

// String renders the spec in the canonical form ParseSpec accepts, so a
// failure message embeds its own replay command.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", s.Drop)
	if s.DropEvery > 0 {
		parts = append(parts, fmt.Sprintf("dropevery=%d", s.DropEvery))
	}
	add("dup", s.Dup)
	add("delay", s.Delay)
	add("reorder", s.Reorder)
	add("corrupt", s.Corrupt)
	add("truncate", s.Truncate)
	if s.MaxDelay > 0 {
		parts = append(parts, fmt.Sprintf("maxdelay=%s", s.MaxDelay))
	}
	for _, ev := range s.Severs {
		p := fmt.Sprintf("sever=%d@%d", ev.Link, ev.AtMsg)
		if ev.HealOnRestart {
			p += ":heal"
		}
		parts = append(parts, p)
	}
	for _, ev := range s.Crashes {
		parts = append(parts, fmt.Sprintf("crash=%d@%d", ev.Link, ev.AtMsg))
	}
	if len(parts) == 0 {
		parts = append(parts, "none")
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the comma-separated key=value form produced by
// Spec.String, e.g. "drop=0.05,corrupt=0.01,crash=1@40,sever=2@30:heal".
// "none" (or an empty string) is the zero spec. Seed is not part of the
// textual form; set it separately (colsgd-bench uses its -seed flag).
func ParseSpec(text string) (Spec, error) {
	var s Spec
	text = strings.TrimSpace(text)
	if text == "" || text == "none" {
		return s, nil
	}
	for _, field := range strings.Split(text, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return s, fmt.Errorf("chaos: bad spec field %q (want key=value)", field)
		}
		prob := func() (float64, error) {
			p, err := strconv.ParseFloat(val, 64)
			// The negated comparison also rejects NaN.
			if err != nil || !(p >= 0 && p <= 1) {
				return 0, fmt.Errorf("chaos: %s=%q is not a probability in [0,1]", key, val)
			}
			return p, nil
		}
		var err error
		switch key {
		case "drop":
			s.Drop, err = prob()
		case "dup":
			s.Dup, err = prob()
		case "delay":
			s.Delay, err = prob()
		case "reorder":
			s.Reorder, err = prob()
		case "corrupt":
			s.Corrupt, err = prob()
		case "truncate":
			s.Truncate, err = prob()
		case "dropevery":
			s.DropEvery, err = strconv.ParseInt(val, 10, 64)
			if err != nil || s.DropEvery < 0 {
				return s, fmt.Errorf("chaos: dropevery=%q is not a non-negative integer", val)
			}
		case "maxdelay":
			s.MaxDelay, err = time.ParseDuration(val)
			if err != nil {
				return s, fmt.Errorf("chaos: maxdelay=%q: %v", val, err)
			}
		case "sever":
			link, at, heal, perr := parseLinkEvent(val, true)
			if perr != nil {
				return s, perr
			}
			s.Severs = append(s.Severs, Sever{Link: link, AtMsg: at, HealOnRestart: heal})
		case "crash":
			link, at, _, perr := parseLinkEvent(val, false)
			if perr != nil {
				return s, perr
			}
			s.Crashes = append(s.Crashes, Crash{Link: link, AtMsg: at})
		default:
			return s, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

// parseLinkEvent parses "link@msg" with an optional ":heal" suffix.
func parseLinkEvent(val string, allowHeal bool) (link int, at int64, heal bool, err error) {
	if allowHeal {
		if rest, ok := strings.CutSuffix(val, ":heal"); ok {
			heal = true
			val = rest
		}
	}
	l, m, ok := strings.Cut(val, "@")
	if !ok {
		return 0, 0, false, fmt.Errorf("chaos: bad link event %q (want link@msg)", val)
	}
	link, err = strconv.Atoi(l)
	if err != nil || link < 0 {
		return 0, 0, false, fmt.Errorf("chaos: bad link in %q", val)
	}
	at, err = strconv.ParseInt(m, 10, 64)
	if err != nil || at < 0 {
		return 0, 0, false, fmt.Errorf("chaos: bad message index in %q", val)
	}
	return link, at, heal, nil
}

// Snapshot is a point-in-time copy of the injector's fault counters —
// what tests assert against to prove faults were actually exercised.
type Snapshot struct {
	// Calls counts messages that passed through the injector.
	Calls int64
	// Per-fault counts.
	Dropped, DroppedReplies        int64
	Duplicated, Delayed, Reordered int64
	Corrupted, Truncated           int64
	SeveredCalls, CrashedCalls     int64
	Crashes, Severed, Restarts     int64
}

// Injected totals the fault events (not the per-call consequences of a
// standing sever/crash, which repeat until recovery).
func (s Snapshot) Injected() int64 {
	return s.Dropped + s.Duplicated + s.Delayed + s.Reordered +
		s.Corrupted + s.Truncated + s.Crashes + s.Severed
}

// sortedKV renders a snapshot compactly for reports.
func (s Snapshot) String() string {
	m := map[string]int64{
		"calls": s.Calls, "dropped": s.Dropped, "droppedReplies": s.DroppedReplies,
		"duplicated": s.Duplicated, "delayed": s.Delayed, "reordered": s.Reordered,
		"corrupted": s.Corrupted, "truncated": s.Truncated,
		"severedCalls": s.SeveredCalls, "crashedCalls": s.CrashedCalls,
		"crashes": s.Crashes, "severed": s.Severed, "restarts": s.Restarts,
	}
	keys := make([]string, 0, len(m))
	for k, v := range m {
		if v != 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	if len(parts) == 0 {
		return "quiet"
	}
	return strings.Join(parts, " ")
}
