package collio

import (
	"fmt"
	"slices"
	"sort"

	"mcio/internal/faults"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// HostFault is one host-level fault (crash or memory collapse)
// delivered to a FaultHandler at a round boundary.
type HostFault struct {
	Node     int
	Kind     faults.Kind
	Time     float64 // simulated seconds, event schedule time
	Severity float64 // collapse fraction for MemCollapse
	// Proactive marks a health-driven re-placement: no hard fault has
	// fired — the suspicion detector crossed threshold — so the node's
	// in-flight round completed fine and the handler should charge
	// re-coordination cost, not failure-detection latency.
	Proactive bool
}

// Reassignment is a handler's decision for one affected domain.
//
// MergeInto >= 0 merges the domain's remaining work into that live
// domain (the memory-conscious leaf-takeover path): the absorber keeps
// its own aggregator and buffer. MergeInto < 0 re-places the domain
// standalone with the given aggregator, host, buffer and severity (the
// relocation fallback, or the baseline's stall-on-the-same-host, which
// re-places without moving). A zero BufferBytes keeps the domain's
// current buffer. StallSeconds is recovery dead time (detection or
// reboot); the cost loop charges the maximum across one event's
// reassignments once.
type Reassignment struct {
	Domain        int
	MergeInto     int
	Aggregator    int
	AggNode       int
	BufferBytes   int64
	PagedSeverity float64
	StallSeconds  float64
}

// FaultHandler is a strategy's mid-operation recovery policy: given a
// host fault and the indices of the live domains with remaining work on
// the failed host, decide where that work goes. live is the current
// domain set (placements reflect earlier recoveries); handlers must not
// mutate it — they return Reassignments and the cost loop applies them
// in order.
type FaultHandler interface {
	Name() string
	OnHostFault(ctx *Context, f HostFault, live []Domain, affected []int) ([]Reassignment, error)
}

// FaultResult extends CostResult with the resilience accounting of a
// faulted run.
type FaultResult struct {
	CostResult
	// Injected counts the fault events that fired, by kind name.
	Injected map[string]int
	// Failovers counts domain reassignments that moved work (merge or
	// relocation); Stalls counts same-host stall-and-retry recoveries.
	Failovers int
	Stalls    int
	// ReplayedRounds counts in-flight rounds re-run because their
	// aggregator was lost mid-round.
	ReplayedRounds int
	// StorageRetries counts OST requests re-issued inside transient
	// error windows; DroppedMessages/DelayedMessages count message
	// faults consumed.
	StorageRetries  int
	DroppedMessages int
	DelayedMessages int
	// CorruptedMessages counts MsgBitFlip events consumed: the chunk is
	// detected by end-to-end verification and re-requested, so its bytes
	// move twice plus a detection round-trip. TornWrites counts TornWrite
	// events consumed: the read-back verify re-issues the torn access.
	CorruptedMessages int
	TornWrites        int
	// Gray-failure accounting. FlakyDrops counts NICFlaky drops (a
	// subset of DroppedMessages); LeakedNodes counts nodes whose memory
	// budget a MemLeak decayed.
	FlakyDrops  int
	LeakedNodes int
	// Hedging accounting (CostAdaptive only). A hedged message's bytes
	// move twice — original and re-request — and the checksum path
	// discards the loser, so DedupedBytes never reach user accounting.
	HedgedMessages int
	HedgedBytes    int64
	DedupedBytes   int64
	// Adaptive-failover accounting (CostAdaptive only).
	ProactiveFailovers int
	SuspectEvents      int
	BreakerOpens       int
	BreakerFastFails   int
	// RecoverySeconds is simulated time spent on failure handling
	// (stalls + recovery rounds), a subset of Seconds.
	RecoverySeconds float64
	RecoveryRounds  int
}

// applyReassignment applies one handler decision to the live domain
// set. Merged victims are emptied (Bytes 0, Extents nil) rather than
// removed so domain indices stay stable across a faulted run.
func applyReassignment(live []Domain, ra Reassignment) error {
	if ra.Domain < 0 || ra.Domain >= len(live) {
		return fmt.Errorf("collio: reassignment of invalid domain %d", ra.Domain)
	}
	if ra.MergeInto >= 0 {
		if ra.MergeInto >= len(live) || ra.MergeInto == ra.Domain {
			return fmt.Errorf("collio: domain %d merged into invalid domain %d", ra.Domain, ra.MergeInto)
		}
		v, a := &live[ra.Domain], &live[ra.MergeInto]
		if v.Bytes > 0 {
			a.Extents = pfs.NormalizeExtents(
				append(append([]pfs.Extent(nil), a.Extents...), v.Extents...))
			a.Bytes += v.Bytes
		}
		v.Extents, v.Bytes = nil, 0
		return nil
	}
	d := &live[ra.Domain]
	d.Aggregator = ra.Aggregator
	d.AggNode = ra.AggNode
	if ra.BufferBytes > 0 {
		d.BufferBytes = ra.BufferBytes
	}
	d.PagedSeverity = ra.PagedSeverity
	return nil
}

// ApplyReassignments rewrites a domain set after host faults, the same
// bookkeeping CostWithFaults performs: merges fold the victim's extents
// into the absorber and empty the victim (indices stay stable);
// standalone entries rewrite placement. Use Plan.Compact afterwards to
// drop the emptied victims before Validate or Exec.
func ApplyReassignments(live []Domain, ras []Reassignment) error {
	for _, ra := range ras {
		if err := applyReassignment(live, ra); err != nil {
			return err
		}
	}
	return nil
}

// Compact returns a copy of the plan without emptied (fully merged)
// domains — the executable plan after fault recovery.
func (p *Plan) Compact() *Plan {
	q := &Plan{Strategy: p.Strategy, Groups: p.Groups, GroupRanks: p.GroupRanks}
	for _, d := range p.Domains {
		if d.Bytes > 0 {
			q.Domains = append(q.Domains, d)
		}
	}
	return q
}

// CostWithFaults prices plan like Cost, but with a fault injector
// advancing in simulated time and a FaultHandler deciding where the
// work of crashed or collapsed hosts goes. A nil or empty injector is
// the clean run, so the result is byte-identical to Cost's. The same
// plan, injector schedule and handler always produce the same result —
// faulted runs are as reproducible as clean ones. It runs the byte
// engine: every contributor is walked per rank, so the per-rank mpi.*
// and per-domain collio.shuffle_bytes counters are emitted.
func CostWithFaults(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler) (*FaultResult, error) {
	return price(ctx, plan, reqs, nil, false, op, opt, inj, handler, nil)
}

// CostWithFaultsBundled is CostWithFaults on the analytical fast path,
// bit-identical to it: the same loop, with healthy traffic bundled per
// node (see price). With a nil or empty injector it prices from
// BuildShape's round structure, as CostShape does.
// fastsim.CostWithFaults is its public face.
func CostWithFaultsBundled(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler) (*FaultResult, error) {
	return price(ctx, plan, reqs, nil, true, op, opt, inj, handler, nil)
}

// price is the one pricing loop. Every cost entry point runs it: Cost
// and CostWithFaults (the byte engine), CostShape and
// CostWithFaultsBundled (the fast engine) and CostAdaptive. It prices
// the metadata exchange, then one data round per iteration: each active
// work item — one per domain with rounds, plus the successors recovery
// folds create — shuffles its round's share of the contributions and
// stores its round's staggered buffer slice.
//
// The engine is chosen by bundle. The byte engine (bundle false) walks
// every contributor per rank, one message each, and feeds the per-rank
// mpi.* and per-domain collio.shuffle_bytes counters. The fast engine
// (bundle true) prices the same rounds bit-identically with far fewer
// messages:
//
//   - Engine round pricing reduces messages to commutative per-node
//     integer loads, so healthy traffic aggregates freely: one
//     AggMessage per (node, domain) pair per round, reconstructed
//     exactly by NodeContrib.RoundShare.
//   - Message-level fault state (drop/flip budgets, delay windows,
//     flaky-NIC counters) is keyed by source node, and every injector
//     query on a node without live state is a pure no-op. Each round
//     the loop computes the hot-node set; messages from a hot node are
//     walked per rank in byte-engine order — preserving both the
//     injector's per-node query sequence and the order extra latency
//     terms are summed in (floats only accumulate from hot messages,
//     so skipping healthy ones changes nothing) — while healthy nodes
//     stay aggregated.
//   - Every contributor of one folded item ships the same recovery
//     payload, so consecutive same-route recovery messages bundle.
//
// A nil or empty injector is a clean run, and a clean run does no fault
// work: no per-round node, target or leak updates, no injector or
// adaptive calls, no copy of the domain set, no faults.* counters, and
// ad is left untouched. A clean fast-engine run prices from the round
// structure sh (built from reqs when nil): it never folds, so its items
// carry the Shape's per-node aggregates and no per-rank lists.
//
// With an injector, fault events apply at round boundaries through
// handler, and ad == nil is the static retry-only policy; ad != nil
// adds health observation, circuit breakers, hedging and proactive
// failover. Fault *pricing* — including the gray kinds — is identical
// either way; only the response policy differs. Adaptive runs are
// byte-engine-only: hedging feeds a delay window whose contents depend
// on message order. Everything but message emission — storage
// accesses, retry ladders, replay, refolds, slowdowns, leak decay — is
// shared by the engines, so identical per-round costs keep the engine
// clock identical and fault windows open and close on the same
// boundaries.
func price(ctx *Context, plan *Plan, reqs []RankRequest, sh *Shape, bundle bool, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler, ad *Adaptive) (*FaultResult, error) {
	if inj.Empty() {
		inj, ad = nil, nil
	} else if handler == nil {
		return nil, fmt.Errorf("collio: fault injection without a FaultHandler")
	}
	if bundle && inj == nil && sh == nil {
		var err error
		if sh, err = BuildShape(ctx, plan, reqs); err != nil {
			return nil, err
		}
	}
	eng, pid, err := newCostEngine(ctx, plan, op, opt)
	if err != nil {
		return nil, err
	}
	if inj != nil {
		inj.SetObserver(ctx.Obs)
	}

	// Metadata exchange and the initial work items: per-rank
	// contributors, except on a clean fast run, which takes the Shape's
	// per-node aggregates.
	var co *costObs
	var contribs [][]rankContrib
	meta := sim.AggRound{Kind: sim.RoundMetadata}
	switch {
	case sh != nil:
		meta.Exchanges = sh.MetaExchanges
	case bundle:
		meta.Exchanges = buildMetaExchanges(ctx, plan, reqs)
		contribs = domainContribs(ctx, plan.Domains, reqs)
	default:
		co = newCostObs(ctx, plan, op)
		meta.Messages = metaRound(ctx, plan, reqs, co)
		contribs = domainContribs(ctx, plan.Domains, reqs)
	}
	if len(meta.Messages)+len(meta.Exchanges) > 0 {
		eng.RunAggRound(meta)
	}
	items, totalRounds := faultItems(plan.Domains, contribs, sh)

	res := &FaultResult{}
	tlr := ctx.Timeline
	nodes := ctx.Topo.Nodes()
	live := plan.Domains
	var spec faults.Spec
	// leakFrac tracks the largest MemLeak fraction already applied per
	// node; leakSev the paging severity that decay produced (kept apart
	// from nodeSeverity so adaptive observation can attribute it).
	// nodeSeverity tracks the worst paging severity declared per node so
	// recoveries never accidentally lower another domain's penalty. hot
	// is the fast engine's hot-node mask.
	var leakFrac, leakSev, nodeSeverity []float64
	var hot []bool
	if inj != nil {
		// Recovery re-places domains: a faulted run works on a copy.
		live = append([]Domain(nil), plan.Domains...)
		spec = inj.Spec()
		if ad != nil {
			ad.init(spec)
			ad.Detector.SetObserver(ctx.Obs)
			ad.Breakers.SetObserver(ctx.Obs)
		}
		leakFrac = make([]float64, nodes)
		leakSev = make([]float64, nodes)
		nodeSeverity = make([]float64, nodes)
		for _, d := range live {
			if d.PagedSeverity > nodeSeverity[d.AggNode] {
				nodeSeverity[d.AggNode] = d.PagedSeverity
			}
		}
		if bundle {
			hot = make([]bool, nodes)
		}
	}

	// handleHostEvent applies one host-level event through the handler
	// and returns how many reassignments it decided (a handler may
	// lawfully decline a proactive move — e.g. no live host to take the
	// work — in which case nothing changes and nothing is charged).
	handleHostEvent := func(ev faults.Event, proactive bool) (int, error) {
		evKind := timeline.EvFailover
		if proactive {
			evKind = timeline.EvProactive
		}
		// Which items (and through them, live domains) lose their host?
		var affectedItems []int
		domainSet := map[int]bool{}
		for ii, it := range items {
			if it.active() && live[it.domain].AggNode == ev.Node {
				affectedItems = append(affectedItems, ii)
				domainSet[it.domain] = true
			}
		}
		affected := make([]int, 0, len(domainSet))
		for d := range domainSet {
			affected = append(affected, d)
		}
		sort.Ints(affected)

		// The round in flight when the host died is lost: replay it. A
		// proactive move happens between rounds on a live host — nothing
		// was lost, nothing replays.
		if !proactive {
			for _, ii := range affectedItems {
				if items[ii].done > 0 {
					items[ii].done--
					res.ReplayedRounds++
				}
			}
		}

		ras, err := handler.OnHostFault(ctx, HostFault{
			Node: ev.Node, Kind: ev.Kind, Time: ev.Time, Severity: ev.Severity,
			Proactive: proactive,
		}, live, affected)
		if err != nil {
			return 0, err
		}

		var stall float64
		var rec sim.AggRound
		// refold retires every item bound to domain src and re-creates
		// its remaining work bound to domain dst, shipping the
		// contributors' remaining extent lists to dst's aggregator as
		// recovery-round metadata (each list approximated by the item's
		// extent count, as in the initial exchange).
		refold := func(src, dst int, reExchange bool) {
			// Snapshot the length: folding appends successors, and when
			// src == dst (an in-place re-placement) a successor would
			// match the filter and fold itself forever.
			n := len(items)
			for ii := 0; ii < n; ii++ {
				it := items[ii]
				if it.domain != src || !it.active() {
					continue
				}
				nit := it.fold(dst, live)
				it.done = it.rounds // retire
				if nit == nil {
					continue
				}
				items = append(items, nit)
				if !reExchange {
					continue
				}
				bytes := nit.recoveryMetaBytes()
				dstNode := live[dst].AggNode
				for _, c := range nit.contribs {
					co.transfer(c.rank, live[dst].Aggregator, bytes)
					if k := len(rec.Messages); bundle && k > 0 {
						if m := &rec.Messages[k-1]; m.SrcNode == c.node && m.DstNode == dstNode {
							m.Bytes += bytes
							m.Count++
							continue
						}
					}
					rec.Messages = append(rec.Messages, sim.AggMessage{
						SrcNode: c.node, DstNode: dstNode, Bytes: bytes, Count: 1,
					})
				}
			}
		}
		for _, ra := range ras {
			if ra.StallSeconds > stall {
				stall = ra.StallSeconds
			}
			if ra.MergeInto >= 0 {
				refold(ra.Domain, ra.MergeInto, true)
				if err := applyReassignment(live, ra); err != nil {
					return 0, err
				}
				res.Failovers++
				if tlr != nil {
					tlr.J().Record(ev.Time, evKind, timeline.Ent("node", ev.Node),
						fmt.Sprintf("domain %d merged into %d (node %d)",
							ra.Domain, ra.MergeInto, live[ra.MergeInto].AggNode))
				}
				continue
			}
			if ra.AggNode < 0 || ra.AggNode >= nodes {
				return 0, fmt.Errorf("collio: domain %d reassigned to node %d outside [0,%d)", ra.Domain, ra.AggNode, nodes)
			}
			moved := live[ra.Domain].AggNode != ra.AggNode
			bufChanged := ra.BufferBytes > 0 && live[ra.Domain].BufferBytes != ra.BufferBytes
			if err := applyReassignment(live, ra); err != nil {
				return 0, err
			}
			if s := ra.PagedSeverity; s > nodeSeverity[ra.AggNode] {
				nodeSeverity[ra.AggNode] = s
			}
			eng.SetNodePaged(ra.AggNode, nodeSeverity[ra.AggNode])
			if moved || bufChanged {
				refold(ra.Domain, ra.Domain, moved)
				res.Failovers++
				if tlr != nil {
					tlr.J().Record(ev.Time, evKind, timeline.Ent("node", ev.Node),
						fmt.Sprintf("domain %d re-placed on node %d", ra.Domain, ra.AggNode))
				}
			} else {
				res.Stalls++
			}
		}
		if len(ras) > 0 {
			tlBufferGauges(ctx, live, ev.Time)
		}
		if stall > 0 {
			eng.AddRecoveryLatency(stall, ev.Kind.String())
		}
		if len(rec.Messages) > 0 {
			eng.RunAggRecoveryRound(rec)
		}
		return len(ras), nil
	}

	// atBoundary applies the fault state of the round boundary at now:
	// due fault events, straggler and gray-fault slowdowns, leak decay
	// and, with ad, the adaptive policy's observations and proactive
	// moves.
	atBoundary := func(now float64) error {
		for _, ev := range inj.Advance(now) {
			if tlr != nil {
				// The event's own schedule time, not the round boundary
				// that discovered it: detection lag is measured from here.
				tlr.J().Record(ev.Time, timeline.EvFault, ev.EntityLabel(), ev.Describe())
			}
			if ev.Kind != faults.NodeCrash && ev.Kind != faults.MemCollapse {
				continue
			}
			if _, err := handleHostEvent(ev, false); err != nil {
				return err
			}
		}
		for n := 0; n < nodes; n++ {
			eng.SetNodeSlowdown(n, inj.NodeSlowdown(n, now))
		}

		// Gray-fault pricing, identical for static and adaptive runs: a
		// slowed-down OST stretches honest streaming (the excess lands in
		// delay blame), a leaking node pages harder every round.
		for t := 0; t < ctx.FS.Targets; t++ {
			eng.SetTargetSlowdown(t, inj.OSTSlowdownFactor(t, now))
		}
		for n := 0; n < nodes; n++ {
			frac := inj.MemLeakFraction(n, now)
			if frac <= leakFrac[n] {
				continue
			}
			if leakFrac[n] == 0 {
				res.LeakedNodes++
			}
			leakFrac[n] = frac
			if tlr != nil {
				tlr.AddGauge(timeline.Ent("node", n), "leak_frac", now, frac)
			}
			var sev float64
			if mh, ok := handler.(MemDecayHandler); ok {
				sev = mh.OnMemDecay(n, frac)
			} else {
				sev = leakSeverity(live, ctx.Avail[n], n, frac)
			}
			if sev > leakSev[n] {
				leakSev[n] = sev
			}
			if leakSev[n] > nodeSeverity[n] {
				nodeSeverity[n] = leakSev[n]
			}
			eng.SetNodePaged(n, nodeSeverity[n])
		}

		// Adaptive policy: feed the suspicion detector the per-entity
		// service signals this round boundary exposes, open breakers on
		// newly suspected targets, and proactively move work off
		// suspected hosts before a hard fault makes the decision for us.
		if ad != nil && ad.Detector != nil {
			unit := spec.DropTimeoutSeconds
			if unit <= 0 {
				unit = 0.01
			}
			for t := 0; t < ctx.FS.Targets; t++ {
				wasSus := ad.Detector.Suspected("ost", t)
				if ad.Detector.Observe("ost", t, inj.OSTSlowdownFactor(t, now)) {
					// Every round a target stays suspected is one suspicion
					// event against its breaker — the Nth opens it.
					before := ad.Breakers.State(t)
					ad.Breakers.OnFailure(t, now)
					tlBreakerEvent(tlr, before, ad.Breakers.State(t), t, now)
				}
				tlSuspicion(tlr, ad.Detector, "ost", t, wasSus, now)
			}
			for n := 0; n < nodes; n++ {
				sig := inj.NodeSlowdown(n, now) +
					(inj.MsgDelaySeconds(n, now)+inj.NICDelaySeconds(n, now))/unit +
					4*leakSev[n]
				wasSus := ad.Detector.Suspected("node", n)
				ad.Detector.Observe("node", n, sig)
				tlSuspicion(tlr, ad.Detector, "node", n, wasSus, now)
			}
			if ad.Proactive {
				for _, n := range ad.Detector.SuspectedIDs("node") {
					if ad.handled[n] {
						continue
					}
					hasWork := false
					for _, it := range items {
						if it.active() && live[it.domain].AggNode == n {
							hasWork = true
							break
						}
					}
					if !hasWork {
						continue
					}
					ad.handled[n] = true
					ev := faults.Event{Kind: faults.Straggler, Time: now, Node: n, Severity: 1}
					moved, err := handleHostEvent(ev, true)
					if err != nil {
						return err
					}
					// A declined move (handler found no live host to take
					// the work) counts as nothing: the node keeps its
					// domains and its suspicion stays on record.
					if moved > 0 {
						res.ProactiveFailovers++
					}
				}
			}
		}
		return nil
	}

	// The engine does not retain a round's slices past RunAggRound, so
	// one round's backing arrays, the slice scratch and the stripe mapper
	// are recycled across the whole loop.
	var round sim.AggRound
	var slice []pfs.Extent
	var now, extraLat float64
	mapper := ctx.FS.NewMapper()

	// shuffleFaults prices the message faults of one walked shuffle
	// message m leaving a hot node: delay windows (hedged under ad),
	// drops, flaky-NIC drops and bit flips, each resent message moving
	// its bytes again.
	shuffleFaults := func(m sim.AggMessage) {
		delay := inj.MsgDelaySeconds(m.SrcNode, now) + inj.NICDelaySeconds(m.SrcNode, now)
		if delay > 0 {
			charged := delay
			if ad != nil {
				if dl, armed := ad.hedgeDeadline(); armed && dl < delay {
					// Hedge the straggler: at the quantile deadline a
					// duplicate re-request goes out and the first arrival
					// wins. The duplicate's bytes move on the wire but the
					// checksum path discards the loser, so they never
					// reach user accounting.
					charged = dl
					round.Messages = append(round.Messages, m)
					res.HedgedMessages++
					res.HedgedBytes += m.Bytes
					res.DedupedBytes += m.Bytes
					if tlr != nil {
						tlr.J().Record(now, timeline.EvHedge, timeline.Ent("node", m.SrcNode),
							fmt.Sprintf("%d bytes re-requested", m.Bytes))
					}
				}
			}
			extraLat += charged
			res.DelayedMessages++
		}
		if ad != nil {
			ad.window.Add(delay)
		}
		if inj.TakeDrop(m.SrcNode) {
			// Lost and resent after the drop timeout: the bytes move
			// twice and the round absorbs the timeout.
			round.Messages = append(round.Messages, m)
			extraLat += spec.DropTimeoutSeconds
			res.DroppedMessages++
		}
		if inj.TakeNICDrop(m.SrcNode, now) {
			// A flaky-NIC burst drop, priced like any other drop.
			round.Messages = append(round.Messages, m)
			extraLat += spec.DropTimeoutSeconds
			res.DroppedMessages++
			res.FlakyDrops++
		}
		if inj.TakeMsgFlip(m.SrcNode) {
			// Silently corrupted: end-to-end verification detects the
			// flip and re-requests the chunk, so the bytes move twice and
			// the round absorbs the detect+resend round-trip (priced like
			// a drop timeout).
			round.Messages = append(round.Messages, m)
			extraLat += spec.DropTimeoutSeconds
			res.CorruptedMessages++
			if tlr != nil {
				tlr.J().Record(now, timeline.EvRepair, timeline.Ent("node", m.SrcNode),
					fmt.Sprintf("corrupted message re-requested (%d bytes)", m.Bytes))
			}
		}
	}

	// storageFaults prices the faults of one storage access: the retry
	// ladder and degraded service of the target's error windows, torn
	// writes and, with ad, the target's circuit breaker. The same
	// accesses in the same order on both engines drive the same
	// per-target state.
	bw := ctx.FS.TargetBW
	if op == Read && ctx.FS.ReadBWFactor > 0 {
		bw *= ctx.FS.ReadBWFactor
	}
	storageFaults := func(io *sim.IOOp) {
		fastFail := false
		if ad != nil {
			// Allow may move the breaker Open -> HalfOpen at the probe
			// deadline; the state diff journals it.
			before := ad.Breakers.State(io.Target)
			fastFail = !ad.Breakers.Allow(io.Target, now)
			tlBreakerEvent(tlr, before, ad.Breakers.State(io.Target), io.Target, now)
		}
		var retries int
		var delay float64
		if fastFail {
			// Open breaker: fail fast into degraded service. The access
			// skips the retry ladder entirely and pays only the degraded
			// streaming factor — the whole point of the breaker is not
			// paying the full backoff walk per access against a target
			// known to be sick.
			delay = float64(io.Bytes) / bw * (max(spec.DegradedFactor, 1) - 1)
		} else {
			var degraded bool
			retries, delay, degraded = inj.OSTPenalty(io.Target, now)
			if degraded {
				delay += float64(io.Bytes) / bw * (spec.DegradedFactor - 1)
			}
			res.StorageRetries += retries
			if ad != nil {
				before := ad.Breakers.State(io.Target)
				if retries > 0 {
					ad.Breakers.OnFailure(io.Target, now)
				} else if !inj.OSTWindowActive(io.Target, now) &&
					!(ad.Detector != nil && ad.Detector.Suspected("ost", io.Target)) {
					// A clean access only votes "healthy" when the
					// detector agrees — a suspected-slow target must not
					// have its breaker failure count washed out by
					// accesses that merely completed (slowly).
					ad.Breakers.OnSuccess(io.Target, now)
				}
				tlBreakerEvent(tlr, before, ad.Breakers.State(io.Target), io.Target, now)
			}
		}
		torn := 0
		if op == Write && inj.TakeTornWrite(io.Target) {
			// A torn object write is caught by the read-back verify and
			// re-issued: one extra request on the target.
			torn = 1
			res.TornWrites++
			if tlr != nil {
				tlr.J().Record(now, timeline.EvRepair, timeline.Ent("ost", io.Target),
					"torn write re-issued")
			}
		}
		io.Requests += retries + torn
		io.DelaySeconds = delay
		io.Degraded = fastFail
	}

	// Main loop: one data round per iteration, fault events applied at
	// round boundaries. Finished items are dropped as the loop goes, so
	// each round walks only the active ones. The guard bounds
	// pathological refold cascades; a correct handler converges far
	// below it.
	guard := 16*(totalRounds+1) + 1024
	executed := 0
	for {
		now = eng.Elapsed()
		if inj != nil {
			if err := atBoundary(now); err != nil {
				return nil, err
			}
		}
		items = slices.DeleteFunc(items, func(it *faultItem) bool { return !it.active() })
		if len(items) == 0 {
			break
		}

		// Hot nodes carry message-level fault state this round: a live
		// delay window, pending drop/flip budgets, or an active flaky-NIC
		// drop cadence. Events only apply at round boundaries, so a node
		// healthy here stays query-inert all round.
		if hot != nil {
			for n := 0; n < nodes; n++ {
				hot[n] = inj.MsgDelaySeconds(n, now)+inj.NICDelaySeconds(n, now) > 0 ||
					inj.PendingDrops(n) > 0 || inj.PendingFlips(n) > 0 ||
					inj.NICDropActive(n, now)
			}
		}

		round.Messages = round.Messages[:0]
		round.IOOps = round.IOOps[:0]
		extraLat = 0
		for _, it := range items {
			d := &live[it.domain]
			s := it.done
			// An item walks its contributors per rank on the byte engine.
			// The fast engine walks only when one of its messages' source
			// node is hot — the aggregator node on reads (every message
			// originates there), any contributing node on writes — and
			// bundles every message it does not walk.
			walk := !bundle
			var aggs []NodeContrib
			if bundle {
				aggs = it.nodeContribs()
				switch {
				case hot == nil:
				case op == Read:
					walk = hot[d.AggNode]
				default:
					for i := range aggs {
						if hot[aggs[i].Node] {
							walk = true
							break
						}
					}
				}
			}
			if walk {
				for _, c := range it.contribs {
					m := sim.AggMessage{SrcNode: c.node, DstNode: d.AggNode, Count: 1}
					srcRank, dstRank := c.rank, d.Aggregator
					if op == Read {
						m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
						srcRank, dstRank = dstRank, srcRank
					}
					if hot != nil && !hot[m.SrcNode] {
						continue
					}
					if m.Bytes = evenShare(c.bytes, s, it.rounds); m.Bytes == 0 {
						continue
					}
					co.shuffle(it.domain, srcRank, dstRank, m.Bytes)
					if inj != nil {
						shuffleFaults(m)
					}
					round.Messages = append(round.Messages, m)
				}
			}
			for i := range aggs {
				nc := &aggs[i]
				if walk && (op == Read || hot[nc.Node]) {
					continue
				}
				bytes, msgs := nc.RoundShare(s)
				if bytes == 0 {
					continue
				}
				m := sim.AggMessage{SrcNode: nc.Node, DstNode: d.AggNode, Bytes: bytes, Count: msgs}
				if op == Read {
					m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
				}
				round.Messages = append(round.Messages, m)
			}

			// Storage: this round's slice of the item through the
			// collective buffer. Slices are staggered cyclically across
			// domains: aggregators do not run in lockstep on a real
			// machine, and without the stagger, stripe-cycle-aligned
			// domains would hit the same storage target in every round —
			// an artificial convoy the global-round pricing would
			// otherwise create.
			idx := (s + it.rot) % it.rounds
			slice = pfs.SliceDataAppend(slice[:0], it.base, int64(idx)*it.buf, it.buf)
			for _, acc := range mapper.Map(slice) {
				io := sim.IOOp{
					Target:     acc.Target,
					Node:       d.AggNode,
					Bytes:      acc.Bytes,
					Requests:   acc.Requests,
					Contiguous: acc.Contiguous,
					Write:      op == Write,
				}
				if inj != nil {
					storageFaults(&io)
				}
				round.IOOps = append(round.IOOps, io)
			}
			it.done++
		}
		if extraLat > 0 {
			eng.AddLatency(extraLat)
		}
		eng.RunAggRound(round)
		executed++
		if executed > guard {
			return nil, fmt.Errorf("collio: fault recovery did not converge after %d rounds", executed)
		}
	}

	if inj == nil {
		res.CostResult = *costResult(ctx, plan, op, opt, eng, pid, executed, "")
		res.Injected = map[string]int{}
		return res, nil
	}
	res.CostResult = *costResult(ctx, plan, op, opt, eng, pid, executed, " (faults)")
	res.Injected = inj.Counts()
	res.RecoverySeconds = res.Totals.RecoverySeconds
	res.RecoveryRounds = res.Totals.RecoveryRounds
	if ad != nil {
		res.SuspectEvents = ad.Detector.Transitions()
		res.BreakerOpens = ad.Breakers.Opens()
		res.BreakerFastFails = ad.Breakers.FastFails()
	}
	if o := ctx.Obs; o != nil {
		base := []obs.Label{obs.L("strategy", plan.Strategy), obs.L("op", op.String())}
		o.Counter("faults.failovers", base...).Add(int64(res.Failovers))
		o.Counter("faults.stalls", base...).Add(int64(res.Stalls))
		o.Counter("faults.replayed_rounds", base...).Add(int64(res.ReplayedRounds))
		o.Counter("faults.storage_retries", base...).Add(int64(res.StorageRetries))
		o.Counter("faults.dropped_messages", base...).Add(int64(res.DroppedMessages))
		o.Counter("faults.delayed_messages", base...).Add(int64(res.DelayedMessages))
		o.Counter("faults.corrupted_messages", base...).Add(int64(res.CorruptedMessages))
		o.Counter("faults.torn_writes", base...).Add(int64(res.TornWrites))
		o.Counter("faults.flaky_drops", base...).Add(int64(res.FlakyDrops))
		o.Counter("faults.leaked_nodes", base...).Add(int64(res.LeakedNodes))
		if ad != nil {
			o.Counter("faults.hedged_messages", base...).Add(int64(res.HedgedMessages))
			o.Counter("faults.hedged_bytes", base...).Add(res.HedgedBytes)
			o.Counter("faults.deduped_bytes", base...).Add(res.DedupedBytes)
			o.Counter("faults.proactive_failovers", base...).Add(int64(res.ProactiveFailovers))
		}
	}
	return res, nil
}

// leakSeverity is the inline MemLeak fallback for handlers without
// memory accounting: the live domains' buffer reservations on node
// against the decayed budget give the paged fraction.
func leakSeverity(live []Domain, avail int64, node int, frac float64) float64 {
	var reserved int64
	for _, d := range live {
		if d.AggNode == node && d.Bytes > 0 {
			reserved += d.BufferBytes
		}
	}
	if reserved <= 0 {
		return 0
	}
	budget := int64(float64(avail) * (1 - frac))
	over := reserved - budget
	if over <= 0 {
		return 0
	}
	return min(float64(over)/float64(reserved), 1)
}
