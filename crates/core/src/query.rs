//! The Section 5 query kernel: one request of one querier — walk the
//! semantic neighbours, resolve a miss against the index, record the
//! uploader — shared by the whole-cell, split-cell, serve and overlay
//! simulators, which only schedule requests (DESIGN.md §7). Quiet split
//! and serve replays record into the same pooled neighbour list under
//! the quiet accounting rules (interval-settled messages, a rank-based
//! hit check) and share [`QueryCtx::resolve_miss`] and
//! [`QueryCtx::fallback`] with the kernel.

use edonkey_trace::compact::RowBits;
use edonkey_trace::model::FileRef;
use edonkey_workload::adversary::{AdversaryPlan, RoleTable};
use edonkey_workload::churn::{ChurnSchedule, OfflineTable, QueryPolicy};

use crate::index::{IndexBackend, IndexRouter, DHT_HOP_LATENCY_MD, FED_HOP_LATENCY_MD};
use crate::neighbours::{NeighbourList, Peer, PolicyKind, ReputationBook, StaleReaction};
use crate::sim::{fallback_index, SearchHealth, SimConfig};

/// One overlay query round trip (ask the neighbours, hear back), in
/// simulated milli-days. Every attempt pays one; it is the latency
/// floor of an uncontended quiet hit.
pub const QUERY_RTT_MD: u64 = 1;

/// Largest offline table [`Tables`] builds, in entries (32 MiB of
/// `u16`): days past it fall back to the schedule's hash.
const MAX_OFFLINE_ENTRIES: usize = 1 << 24;

/// The stateless churn and adversary draws of a batch of cells,
/// precomputed once per sweep: one [`OfflineTable`] per churned
/// schedule seed over the cells' longest virtual span (window starts do
/// not depend on the rate, so one table serves every rate), and one
/// [`RoleTable`] per live adversary plan.
#[derive(Debug, Default)]
pub(crate) struct Tables {
    offline: Vec<OfflineTable>,
    roles: Vec<RoleTable>,
}

impl Tables {
    /// The tables `cells` read, over peers `0..n_peers`.
    pub(crate) fn new(cells: &[SimConfig], n_peers: usize) -> Self {
        let mut spans: Vec<(u64, u32)> = Vec::new();
        let mut tables = Tables::default();
        for cell in cells {
            let a = &cell.availability;
            if (1..1000).contains(&a.churn.churn_permille) {
                let days = a.virtual_days.max(1);
                match spans.iter_mut().find(|(seed, _)| *seed == a.churn.seed) {
                    Some((_, d)) => *d = (*d).max(days),
                    None => spans.push((a.churn.seed, days)),
                }
            }
            if !a.adversary.is_quiet()
                && !tables
                    .roles
                    .iter()
                    .any(|r| r.plan().config() == &a.adversary)
            {
                let plan = AdversaryPlan::new(a.adversary.clone());
                tables.roles.push(RoleTable::new(plan, n_peers));
            }
        }
        let max_days = (MAX_OFFLINE_ENTRIES / n_peers.max(1)) as u32;
        tables.offline = spans
            .into_iter()
            .map(|(seed, days)| OfflineTable::new(seed, n_peers, days.min(max_days)))
            .collect();
        tables
    }
}

/// Everything a request needs that is fixed for a whole cell: the
/// cell's settings and the sweep's [`Tables`], borrowed — cheap enough
/// to build per split subtask, never per querier.
pub(crate) struct QueryCtx<'a> {
    schedule: ChurnSchedule,
    query: QueryPolicy,
    /// The schedule can take peers offline.
    churn: bool,
    /// The schedule seed's window starts, when the rate needs them.
    starts: Option<&'a OfflineTable>,
    /// The live plan's roles; `None` when nobody is adversarial.
    roles: Option<&'a RoleTable>,
    /// The reputation defense is armed against a live plan: callers
    /// keep one [`ReputationBook`] per querier exactly when this holds.
    defend: bool,
    exposure: u32,
    router: IndexRouter,
    /// Every lookup resolves at no routing cost: one server, no outage
    /// days.
    free_index: bool,
    seed: u64,
    policy: PolicyKind,
    two_hop: bool,
    /// The walk must visit the list in order: only a Random list's
    /// refills (appended in walk order, under staleness handling or the
    /// armed defense) and the two-hop relay scan see that order. Every
    /// other reaction commutes — LRU evictions, and History's probes,
    /// whose list is sorted by its keys alone (each key carries the
    /// clock of its peer's last record, so no two are equal) — so those
    /// walks copy the slots as they lie, which costs less (DESIGN.md §7).
    ordered: bool,
    /// Candidates for the Random policy's stateless replacements.
    sharer_pool: &'a [Peer],
    n_peers: usize,
    span_md: u64,
}

/// What a walk found, and when.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Walk {
    /// The answering holder, if any.
    pub(crate) uploader: Option<Peer>,
    /// The answer came from a neighbour's neighbour.
    pub(crate) two_hop: bool,
    /// Instant of the final attempt, in milli-days.
    at_md: u64,
    /// Attempts issued (the first plus retries).
    attempts: u32,
    /// Backoff slept between attempts, in milli-days.
    backoff_md: u64,
}

impl Walk {
    /// The request's latency beyond any queueing: a round trip per
    /// attempt, the backoff slept between them, and `route_md` of index
    /// routing on a miss.
    pub(crate) fn latency_md(&self, route_md: u64) -> u64 {
        u64::from(self.attempts) * QUERY_RTT_MD + self.backoff_md + route_md
    }
}

/// One request as the kernel sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Request<'s> {
    pub(crate) querier: Peer,
    pub(crate) file: FileRef,
    /// The hijack draw's key: the stream position, or the overlay's
    /// running acquisition number.
    pub(crate) key: u64,
    /// Source count handed to popularity-aware policies (the overlay
    /// passes 0: every upload counts as rare).
    pub(crate) popularity: u32,
    /// Current holders in scan order: the first online, queried,
    /// honest one answers.
    pub(crate) sharers: &'s [Peer],
    /// Instant of the first attempt, in milli-days.
    pub(crate) start_md: u64,
}

/// Reusable walk buffers.
#[derive(Debug, Default)]
pub(crate) struct WalkScratch {
    /// `mark[p] == generation` ⇔ peer `p` is an *online, queried,
    /// answering* neighbour of the current attempt. Stale entries are
    /// invalidated by the generation bump, never by clearing.
    mark: Vec<u64>,
    generation: u64,
    /// Per-attempt copy of the querier's list: staleness and
    /// reputation reactions mutate it mid-walk.
    query_buf: Vec<Peer>,
    /// Consecutive-timeout streaks `(neighbour, streak)` of the
    /// previous attempt and of the one being walked.
    stale_prev: Vec<(Peer, u32)>,
    stale_cur: Vec<(Peer, u32)>,
    /// Relay-list bitset for the two-hop probe.
    relay_bits: RowBits,
}

impl<'a> QueryCtx<'a> {
    /// The context of one cell, reading `tables` built for a batch that
    /// includes it. `sharer_pool` only matters to the Random policy;
    /// `n_peers` sizes the adversary draws.
    pub(crate) fn new(
        cell: &SimConfig,
        tables: &'a Tables,
        sharer_pool: &'a [Peer],
        n_peers: usize,
    ) -> Self {
        let (availability, seed) = (&cell.availability, cell.seed);
        let schedule = ChurnSchedule::new(availability.churn.clone());
        let churn_seed = availability.churn.seed;
        let plan = &availability.adversary;
        let roles = (!plan.is_quiet()).then(|| {
            tables
                .roles
                .iter()
                .find(|r| r.plan().config() == plan)
                .expect("tables cover every live plan of the batch")
        });
        let defend = availability.reputation && roles.is_some();
        let refills = availability.query.handle_stale || defend;
        QueryCtx {
            churn: !schedule.is_quiet(),
            starts: tables.offline.iter().find(|t| t.seed() == churn_seed),
            roles,
            defend,
            schedule,
            query: availability.query,
            exposure: availability.backend.pollution_exposure(),
            router: availability.backend.router(seed),
            free_index: availability.backend == IndexBackend::SingleServer
                && availability.churn.outage_days.is_empty(),
            seed,
            policy: cell.policy,
            two_hop: cell.two_hop,
            ordered: cell.two_hop || (cell.policy == PolicyKind::Random && refills),
            sharer_pool,
            n_peers,
            span_md: u64::from(availability.virtual_days.max(1)) * 1000,
        }
    }

    /// One reputation book per querier when defending, none otherwise —
    /// so `books.get_mut(q)` is `Some` exactly when the defense is armed.
    pub(crate) fn books(&self, n: usize) -> Vec<ReputationBook> {
        vec![ReputationBook::default(); if self.defend { n } else { 0 }]
    }

    /// The nominal instant of stream position `t`: the static stream is
    /// spread uniformly over the virtual span.
    pub(crate) fn nominal_md(&self, t: u64, stream_len: usize) -> u64 {
        t * self.span_md / stream_len.max(1) as u64
    }

    /// The server-fallback uploader of stream position `t` (see
    /// [`fallback_index`]). Backends decide reachability and routing
    /// cost, never who uploads, so zero-outage runs agree across them.
    pub(crate) fn fallback(&self, t: u64, sharers: &[Peer]) -> Peer {
        sharers[fallback_index(self.seed, t, sharers.len())]
    }

    /// Is `peer` offline at `milli` of `day`? [`ChurnSchedule::offline`],
    /// from the table when the sweep built one.
    #[inline(always)]
    fn offline(&self, peer: Peer, day: u32, milli: u32) -> bool {
        self.churn
            && match self.starts {
                Some(table) => table.offline(&self.schedule, peer, day, milli),
                None => self.schedule.offline(peer, day, milli),
            }
    }

    /// Does `peer` refuse to answer? [`AdversaryPlan::answers_nothing`].
    #[inline(always)]
    fn refuses(&self, peer: Peer) -> bool {
        self.roles.is_some_and(|r| r.answers_nothing(peer))
    }

    /// The Random policy's stateless redraw for a slot vacated by
    /// `vacated` on `day`; every other policy takes no replacement.
    fn replacement(&self, querier: Peer, vacated: Peer, day: u32) -> Option<Peer> {
        let (pool, s) = (self.sharer_pool, &self.schedule);
        let random = self.policy == PolicyKind::Random && !pool.is_empty();
        random.then(|| pool[s.replacement_index(querier, vacated, day, pool.len())])
    }

    /// Walks `policies[slot]` — the querier's list — until an attempt
    /// finds a holder, sees no timeout, or exhausts its retries.
    ///
    /// Every attempt queries each listed neighbour. An offline one
    /// times out: no message, no mark, and after `stale_after`
    /// consecutive timeouts within the request the policy's staleness
    /// reaction. An online adversary refuses: the message is paid and
    /// nothing comes back; with `book` (the armed defense) the refusal
    /// scores it and may expel it. Everyone else is marked, and the
    /// first marked holder in `req.sharers` answers — so a replacement
    /// drawn mid-walk, never queried, cannot answer the same attempt.
    /// Two-hop cells then probe each marked relay's list; relays are
    /// read from `policies` by peer id, so a two-hop walk needs the
    /// whole population's policies.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn walk(
        &self,
        scratch: &mut WalkScratch,
        req: &Request,
        policies: &mut [NeighbourList],
        slot: usize,
        mut book: Option<&mut ReputationBook>,
        messages: &mut [u64],
        health: &mut SearchHealth,
    ) -> Walk {
        let WalkScratch {
            mark,
            generation,
            query_buf,
            stale_prev,
            stale_cur,
            relay_bits,
        } = scratch;
        if mark.len() < self.n_peers {
            mark.resize(self.n_peers, 0);
        }
        let querier = req.querier;
        let query = self.query;
        let mut backoff_md = 0u64;
        let mut attempt = 0u32;
        stale_prev.clear();
        loop {
            health.attempted += 1;
            if attempt > 0 {
                health.retried += 1;
            }
            let at_md = req.start_md + backoff_md;
            let (day, milli) = ((at_md / 1000) as u32, (at_md % 1000) as u32);
            *generation += 1;
            let gen = *generation;
            let mut saw_timeout = false;
            query_buf.clear();
            if self.ordered {
                query_buf.extend(policies[slot].neighbours());
            } else {
                query_buf.extend(policies[slot].members());
            }
            stale_cur.clear();
            for &n in query_buf.iter() {
                if self.offline(n, day, milli) {
                    saw_timeout = true;
                    health.timed_out += 1;
                    if !query.handle_stale {
                        continue;
                    }
                    let streak = stale_prev
                        .iter()
                        .find(|&&(p, _)| p == n)
                        .map_or(1, |&(_, s)| s + 1);
                    stale_cur.push((n, streak));
                    if streak >= query.stale_after.max(1) {
                        let replacement = self.replacement(querier, n, day);
                        match policies[slot].handle_stale(n, replacement) {
                            StaleReaction::Evicted | StaleReaction::Replaced => {
                                health.evicted_stale += 1;
                            }
                            StaleReaction::Probed => health.probed_stale += 1,
                            StaleReaction::Kept => {}
                        }
                    }
                } else if self.refuses(n) {
                    // Refused: not a timeout, so no retry or staleness
                    // fires; only the reputation score can clear it.
                    messages[n as usize] += 1;
                    health.wasted_queries += 1;
                    if book.as_deref_mut().is_some_and(|b| b.on_query(n))
                        && policies[slot].expel(n, self.replacement(querier, n, day))
                    {
                        health.reputation_evictions += 1;
                    }
                } else {
                    messages[n as usize] += 1;
                    mark[n as usize] = gen;
                }
            }
            std::mem::swap(stale_prev, stale_cur);

            // Iterating holders (popularity-sized) beats iterating the
            // list for rare files, and finds the same first holder.
            let mut uploader = req
                .sharers
                .iter()
                .find(|&&s| mark[s as usize] == gen)
                .copied();
            let mut two_hop = false;
            if uploader.is_none() && self.two_hop {
                relay_bits.ensure(self.n_peers);
                'relays: for &n in query_buf.iter() {
                    if mark[n as usize] != gen {
                        continue; // an unreachable relay's list is unreachable
                    }
                    // Popular files stamp the relay's list into a
                    // bitset once; rare files keep the direct probe.
                    // Same scan order, same answer.
                    let relay = &policies[n as usize];
                    let stamped = req.sharers.len() * 4 >= relay.len();
                    if stamped {
                        relay_bits.clear();
                        for m in relay.members() {
                            relay_bits.insert(m);
                        }
                    }
                    for &s in req.sharers {
                        let listed = if stamped {
                            relay_bits.contains(s)
                        } else {
                            relay.contains(s)
                        };
                        // The second-hop holder must be online and honest.
                        if s != querier
                            && listed
                            && !self.offline(s, day, milli)
                            && !self.refuses(s)
                        {
                            uploader = Some(s);
                            two_hop = true;
                            break 'relays;
                        }
                    }
                }
            }

            // Retry only when something timed out: a definitive miss
            // over fully online neighbours is final.
            if uploader.is_some() || !saw_timeout || attempt >= query.max_retries {
                return Walk {
                    uploader,
                    two_hop,
                    at_md,
                    attempts: attempt + 1,
                    backoff_md,
                };
            }
            backoff_md += query.backoff_for(attempt);
            attempt += 1;
        }
    }

    /// Settles a request at instant `at_md` against the index. A hit is
    /// answered — and recovered when the server is down that day. A
    /// miss is looked up through the backend: unreachable, the request
    /// strands (`None`: nothing acquired, nothing recorded); otherwise
    /// it falls back to the index, and the lookup's routing latency in
    /// milli-days is returned (0 for a hit).
    #[inline(always)]
    pub(crate) fn resolve_miss(
        &self,
        querier: Peer,
        file: FileRef,
        hit: bool,
        at_md: u64,
        health: &mut SearchHealth,
    ) -> Option<u64> {
        if hit {
            health.answered += 1;
            if self.schedule.server_out((at_md / 1000) as u32) {
                health.recovered += 1;
            }
            Some(0)
        } else if self.free_index {
            health.server_fallback += 1;
            Some(0)
        } else {
            self.route(querier, file, at_md, health)
        }
    }

    /// The miss path of [`QueryCtx::resolve_miss`] when the index has to
    /// route it: a forwarding backend, or outage days. Out of line, so
    /// the single-server loops stay tight.
    #[inline(never)]
    fn route(
        &self,
        querier: Peer,
        file: FileRef,
        at_md: u64,
        health: &mut SearchHealth,
    ) -> Option<u64> {
        let (day, ms) = ((at_md / 1000) as u32, (at_md % 1000) as u32);
        let lookup = self.router.lookup(&self.schedule, querier, file, day, ms);
        health.forwarded += lookup.forwarded;
        health.dht_hops += lookup.dht_hops;
        if !lookup.resolved {
            health.stranded += 1;
            return None;
        }
        health.server_fallback += 1;
        Some(lookup.forwarded * FED_HOP_LATENCY_MD + lookup.dht_hops * DHT_HOP_LATENCY_MD)
    }

    /// Records `uploader` into `policy` for a completed acquisition.
    ///
    /// Under a live plan, pollution strikes first (only fallback
    /// acquisitions resolve through the index), a sybil hijack
    /// otherwise; either replaces only the *recorded* uploader — the
    /// acquisition itself already happened. With the defense armed
    /// (`book`), a banned peer's claim is void and the true uploader is
    /// credited instead; a banned true uploader is not recorded at all;
    /// and the book learns from the record's membership delta. A quiet
    /// plan reduces to the plain record.
    #[inline(always)]
    fn record(
        &self,
        req: &Request,
        policy: &mut NeighbourList,
        book: Option<&mut ReputationBook>,
        uploader: Peer,
        fell_back: bool,
        health: &mut SearchHealth,
    ) {
        let (mut recorded, mut polluted, mut hijacked) = (uploader, false, false);
        if let Some(roles) = self.roles {
            if fell_back {
                let file = req.file.index() as u64;
                if let Some(pol) = roles.polluter(file, self.exposure, self.n_peers) {
                    (recorded, polluted) = (pol, true);
                }
            }
            if !polluted {
                if let Some(syb) = roles.hijacker(req.querier, req.key, self.n_peers) {
                    (recorded, hijacked) = (syb, true);
                }
            }
        }
        if let Some(b) = book.as_deref() {
            if (polluted || hijacked) && b.banned(recorded) {
                // Refusing re-admission — not expulsion — is what
                // starves an attacker out: the capture dies, the
                // learning signal survives.
                (recorded, polluted, hijacked) = (uploader, false, false);
            }
            if b.banned(recorded) {
                return;
            }
        }
        if polluted {
            health.polluted_acquisitions += 1;
        } else if hijacked {
            health.sybil_slots_held += 1;
        }
        let (added, removed) = policy.record(recorded, req.popularity);
        if let Some(b) = book {
            if polluted || hijacked {
                // Suspect any slot the adversary now holds; a repeat
                // capture while on probation bans it outright.
                if (added == Some(recorded) || policy.contains(recorded))
                    && b.suspect(recorded)
                    && policy.expel(recorded, None)
                {
                    health.reputation_evictions += 1;
                }
            } else if b.contains(recorded) {
                b.redeem(recorded);
            }
            if let Some(rm) = removed {
                b.remove(rm);
            }
        }
    }

    /// One request end to end: walk, resolve, and record the answering
    /// holder or — on a resolved miss — `pick()`'s fallback uploader.
    /// `None` when the request strands. Inlined whole into each caller's
    /// loop: as out-of-line calls the three steps cost list-5 Random
    /// cells about a fifth of their time.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn step(
        &self,
        scratch: &mut WalkScratch,
        req: &Request,
        policies: &mut [NeighbourList],
        slot: usize,
        mut book: Option<&mut ReputationBook>,
        pick: impl FnOnce() -> Peer,
        messages: &mut [u64],
        health: &mut SearchHealth,
    ) -> Option<(Walk, u64)> {
        let walk = self.walk(
            scratch,
            req,
            policies,
            slot,
            book.as_deref_mut(),
            messages,
            health,
        );
        let hit = walk.uploader.is_some();
        let route_md = self.resolve_miss(req.querier, req.file, hit, walk.at_md, health)?;
        let uploader = walk.uploader.unwrap_or_else(pick);
        self.record(req, &mut policies[slot], book, uploader, !hit, health);
        Some((walk, route_md))
    }
}
