//! The measurement crawler (Section 2.2), rebuilt mechanistically.
//!
//! The crawler:
//!
//! 1. logs in to every server;
//! 2. repeatedly issues `query-users` nickname queries (a fixed set of
//!    three-letter patterns, `aaa` … `zzz`) against the servers that
//!    still support the feature, each reply capped at 200 users;
//! 3. filters the discovered users to *reachable* (non-firewalled)
//!    clients;
//! 4. browses known clients daily under a bandwidth budget — each
//!    connection costs seconds on the crawl clock, and the budget
//!    tightens over the trace (the paper's coverage fell from 65 k to
//!    35 k clients/day for exactly this reason);
//! 5. records every successful browse as a `(day, peer, cache)`
//!    observation.
//!
//! The output is an [`edonkey_trace::TraceArena`] whose measurement biases
//! (name-collision shadowing, firewalled blind spots, browse-denial,
//! churn aliases, missed days) all arise from the mechanics above.

use std::collections::{HashMap, HashSet};
use std::io::{Seek, Write};

use edonkey_proto::md4::Digest;
use edonkey_proto::wire::{Message, PublishedFile, UserRecord};
use edonkey_trace::compact::{DayArena, TraceArena};
use edonkey_trace::io::bin::TraceWriter;
use edonkey_trace::io::TraceIoError;
use edonkey_trace::model::{FileInfo, PeerInfo, TraceBuilder};
use edonkey_workload::population::Population;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::EventQueue;
use crate::fault::{CrawlHealth, FaultConfig, FaultPlan, RetryPolicy};
use crate::network::{NetConfig, Network};

/// Crawler parameters.
#[derive(Clone, Debug)]
pub struct CrawlerConfig {
    /// Number of three-letter nickname patterns per sweep. The default
    /// is the full `26³ = 17 576` space — the paper's "263 different
    /// queries, starting with 'aaa' and ending with 'zzz'" is read as a
    /// typeset `26³`; 263 evenly spaced trigrams would discover almost
    /// nobody against realistic nicknames.
    pub patterns: usize,
    /// Crawl-clock cost of one browse attempt, in seconds.
    pub seconds_per_browse: u64,
    /// Daily browse budget (seconds) on the first day.
    pub budget_start: u64,
    /// Daily browse budget (seconds) on the last day — smaller, because
    /// the crawler's bandwidth allowance tightened over the campaign.
    pub budget_end: u64,
    /// Day *offsets* (from the trace start) on which the crawler was
    /// down — the two-day network failure visible in Fig. 2.
    pub outage_days: Vec<u32>,
    /// RNG seed for browse-order shuffling.
    pub seed: u64,
    /// The fault schedule injected into the run. Quiet by default, in
    /// which case the crawl is identical to a run without fault
    /// injection.
    pub fault: FaultConfig,
    /// The crawler's retry/timeout/quarantine policy. Defaults to
    /// [`RetryPolicy::no_retry`], the seed crawler's behaviour.
    pub retry: RetryPolicy,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            patterns: 26 * 26 * 26,
            seconds_per_browse: 2,
            budget_start: 86_400,
            budget_end: 30_000,
            outage_days: vec![3, 4],
            seed: 0xc4a1,
            fault: FaultConfig::none(),
            retry: RetryPolicy::no_retry(),
        }
    }
}

impl CrawlerConfig {
    /// Scales the budgets so that roughly `coverage_start`/`coverage_end`
    /// fractions of `peers` can be browsed per day — convenient when the
    /// population size varies.
    pub fn budget_for(mut self, peers: usize, coverage_start: f64, coverage_end: f64) -> Self {
        self.budget_start = (peers as f64 * coverage_start * self.seconds_per_browse as f64) as u64;
        self.budget_end = (peers as f64 * coverage_end * self.seconds_per_browse as f64) as u64;
        self
    }
}

/// A discovered user in the crawler's address book.
#[derive(Clone, Debug)]
struct KnownUser {
    /// Client index in the network (resolved once at discovery).
    client_idx: usize,
}

/// Per-day crawl statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrawlDayStats {
    /// Day offset from the trace start.
    pub day_offset: u32,
    /// Users known after today's discovery sweep.
    pub known_users: usize,
    /// Browse attempts made (bounded by the budget).
    pub attempts: usize,
    /// Successful browses (observations recorded).
    pub browsed: usize,
}

/// The crawler state.
pub struct Crawler {
    /// Configuration.
    pub config: CrawlerConfig,
    /// The fault schedule (derived from `config.fault`).
    plan: FaultPlan,
    /// Address book: uid → resolved client.
    known: HashMap<Digest, KnownUser>,
    /// Consecutive fully-failed days per client (quarantine accounting).
    fail_streak: HashMap<usize, u32>,
    /// Clients currently quarantined: probed once per day, no retries,
    /// paroled on the first successful connection.
    quarantined: HashSet<usize>,
    builder: TraceBuilder,
    stats: Vec<CrawlDayStats>,
    health: CrawlHealth,
    rng: StdRng,
}

impl Crawler {
    /// Creates an idle crawler.
    pub(crate) fn new(config: CrawlerConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let plan = FaultPlan::new(config.fault.clone());
        Crawler {
            config,
            plan,
            known: HashMap::new(),
            fail_streak: HashMap::new(),
            quarantined: HashSet::new(),
            builder: TraceBuilder::new(),
            stats: Vec::new(),
            health: CrawlHealth::default(),
            rng,
        }
    }

    /// The fault schedule this crawler runs against.
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fixed pattern list: `patterns` trigrams evenly spaced through
    /// `aaa`…`zzz`.
    pub(crate) fn patterns(count: usize) -> Vec<String> {
        let total = 26 * 26 * 26;
        (0..count)
            .map(|i| {
                let v = (i * total / count.max(1)) % total;
                let bytes = [
                    b'a' + (v / (26 * 26)) as u8,
                    b'a' + ((v / 26) % 26) as u8,
                    b'a' + (v % 26) as u8,
                ];
                String::from_utf8(bytes.to_vec()).expect("ascii")
            })
            .collect()
    }

    /// Runs one crawl day against the network.
    pub(crate) fn crawl_day(&mut self, net: &mut Network<'_>, day_offset: u32, total_days: u32) {
        let mut stats = CrawlDayStats {
            day_offset,
            ..Default::default()
        };
        if self.config.outage_days.contains(&day_offset) {
            stats.known_users = self.known.len();
            self.stats.push(stats);
            return;
        }

        self.discover(net, day_offset);
        stats.known_users = self.known.len();

        // Browse under the day's budget, on a seconds clock.
        let t = if total_days <= 1 {
            0.0
        } else {
            day_offset as f64 / (total_days - 1) as f64
        };
        let budget = (self.config.budget_start as f64
            + t * (self.config.budget_end as f64 - self.config.budget_start as f64))
            as u64;

        // Shuffled browse order (the crawler cycles its user list; the
        // shuffle models which slice fits today's budget).
        let mut order: Vec<Digest> = self.known.keys().copied().collect();
        order.sort_unstable(); // determinism before shuffling
        shuffle(&mut order, &mut self.rng);

        // Events carry the attempt number so retries share the crawl
        // clock with first tries; `clock` tracks time actually spent,
        // which outruns the pre-scheduled slots when timeouts cost more
        // than a browse slot.
        let policy = self.config.retry;
        let mut queue: EventQueue<(Digest, u32)> = EventQueue::new();
        let mut next_time = 0u64;
        for uid in order {
            queue.schedule(next_time, (uid, 0));
            next_time += self.config.seconds_per_browse;
        }
        let mut stale: Vec<Digest> = Vec::new();
        // client → did any attempt connect today? (quarantine input)
        let mut connected_today: HashMap<usize, bool> = HashMap::new();
        let mut clock = 0u64;
        while let Some((due, (uid, attempt))) = queue.pop() {
            let start = due.max(clock);
            if start > budget {
                self.health.abandoned += 1 + queue.clear() as u64;
                break;
            }
            let Some(user) = self.known.get(&uid) else {
                continue;
            };
            let client_idx = user.client_idx;
            stats.attempts += 1;
            self.health.attempted += 1;
            if attempt > 0 {
                self.health.retries += 1;
            }
            // Reinstalls invalidate the address-book entry.
            if net.clients[client_idx].uid != uid {
                self.health.stale += 1;
                stale.push(uid);
                clock = start + self.config.seconds_per_browse;
                continue;
            }
            let timed_out = self.plan.natted(client_idx)
                || self.plan.connect_timeout(client_idx, day_offset, attempt);
            let reply = if timed_out {
                None
            } else {
                net.deliver_to_idx(client_idx, &Message::BrowseRequest)
            };
            match reply {
                Some(Message::BrowseResult(mut files)) => {
                    self.health.connected += 1;
                    connected_today.insert(client_idx, true);
                    if self.plan.mid_browse_cut(client_idx, day_offset, attempt) {
                        let keep =
                            self.plan
                                .truncated_len(files.len(), client_idx, day_offset, attempt);
                        files.truncate(keep);
                        self.health.truncated += 1;
                    }
                    stats.browsed += 1;
                    if self.record(net, client_idx, &files) {
                        self.health.recorded += 1;
                    } else {
                        self.health.duplicates += 1;
                    }
                    clock = start + self.config.seconds_per_browse;
                }
                Some(_) => {
                    // Browse denied: the connection itself succeeded.
                    self.health.connected += 1;
                    self.health.denied += 1;
                    connected_today.insert(client_idx, true);
                    clock = start + self.config.seconds_per_browse;
                }
                None => {
                    self.health.timeouts += 1;
                    connected_today.entry(client_idx).or_insert(false);
                    clock = start + policy.browse_timeout;
                    // Quarantined peers get the single probe only.
                    let allowed = if self.quarantined.contains(&client_idx) {
                        0
                    } else {
                        policy.max_retries
                    };
                    if attempt < allowed {
                        let at = clock + policy.backoff_for(attempt);
                        queue.schedule(at.max(queue.now()), (uid, attempt + 1));
                    }
                }
            }
        }
        for uid in stale {
            self.known.remove(&uid);
        }
        // Quarantine bookkeeping: a connection paroles the client and
        // clears its streak; a fully-dead day extends the streak.
        for (client_idx, connected) in connected_today {
            if connected {
                self.fail_streak.remove(&client_idx);
                self.quarantined.remove(&client_idx);
            } else {
                let streak = self.fail_streak.entry(client_idx).or_insert(0);
                *streak += 1;
                if *streak >= policy.quarantine_after && self.quarantined.insert(client_idx) {
                    self.health.quarantined += 1;
                }
            }
        }
        self.stats.push(stats);
    }

    /// The discovery sweep: log in to each server and run the nickname
    /// queries where supported.
    fn discover(&mut self, net: &mut Network<'_>, day_offset: u32) {
        let patterns = Self::patterns(self.config.patterns);
        let crawler_uid = Digest([0xCC; 16]);
        // Collect discoveries first (the server borrow must end before
        // uid resolution walks the client table).
        let mut discovered: Vec<UserRecord> = Vec::new();
        for (server_idx, server) in net.servers.iter_mut().enumerate() {
            let login = Message::Login {
                uid: crawler_uid,
                nick: "crawler".into(),
            };
            let session = server.connect(&login, 0x7f00_0001);
            for (pattern_idx, pattern) in patterns.iter().enumerate() {
                // A dropped reply is indistinguishable from a slow
                // server, so the crawler re-asks within its retry
                // budget; a server *without* query-users answers (with
                // a refusal) and ends the sweep as before.
                enum Outcome {
                    Found(Vec<UserRecord>),
                    Unsupported,
                    Dropped,
                }
                let mut outcome = Outcome::Dropped;
                for attempt in 0..=self.config.retry.max_retries {
                    if self
                        .plan
                        .query_dropped(server_idx, pattern_idx, day_offset, attempt)
                    {
                        self.health.query_drops += 1;
                        continue;
                    }
                    outcome = match server.handle(
                        session,
                        &Message::QueryUsers {
                            pattern: pattern.clone(),
                        },
                    ) {
                        Some(Message::FoundUsers(users)) => Outcome::Found(users),
                        _ => Outcome::Unsupported,
                    };
                    break;
                }
                match outcome {
                    Outcome::Found(users) => {
                        // Firewalled users are unreachable: filtered out.
                        discovered.extend(users.into_iter().filter(|u| u.ip != 0));
                    }
                    Outcome::Unsupported => break, // skip this server's sweep
                    Outcome::Dropped => continue,  // every ask was dropped
                }
            }
            server.disconnect(session);
        }
        for user in discovered {
            if self.known.contains_key(&user.uid) {
                continue;
            }
            // Resolve once; the network owns uid changes.
            if let Some(client_idx) = net.client_by_uid(&user.uid) {
                self.known.insert(user.uid, KnownUser { client_idx });
            }
        }
    }

    /// Records a successful browse as a trace observation. Returns
    /// `false` when the peer was already observed today (the browse
    /// succeeded but added nothing to the trace).
    fn record(&mut self, net: &Network<'_>, client_idx: usize, files: &[PublishedFile]) -> bool {
        let client = &net.clients[client_idx];
        let peer_info = &net.population.peers[client.peer_idx].info;
        let peer = self.builder.intern_peer(PeerInfo {
            uid: client.uid,
            ip: client.ip,
            country: peer_info.country,
            asn: peer_info.asn,
        });
        let day = net.day();
        if self.builder.observed_on(day, peer) {
            // The same client can surface twice in one day via nickname
            // collisions; one observation per day is what the trace keeps.
            return false;
        }
        let cache: Vec<_> = files
            .iter()
            .map(|f| {
                self.builder.intern_file(FileInfo {
                    id: f.file_id,
                    size: u64::from(f.size),
                    kind: f.kind,
                })
            })
            .collect();
        self.builder.observe(day, peer, cache);
        true
    }

    /// Per-day statistics so far.
    pub(crate) fn stats(&self) -> &[CrawlDayStats] {
        &self.stats
    }

    /// The graceful-degradation counters so far.
    pub(crate) fn health(&self) -> CrawlHealth {
        self.health
    }

    /// Removes and returns a completed day's observations, if any were
    /// recorded — the streaming hook for feeding a
    /// [`TraceWriter`] day-by-day instead of accumulating the whole
    /// trace (outage days record nothing and return `None`).
    pub(crate) fn take_day(&mut self, day: u32) -> Option<DayArena> {
        self.builder.take_day(day)
    }

    /// The intern tables accumulated so far, for [`TraceWriter::finish`].
    pub(crate) fn tables(&self) -> (&[FileInfo], &[PeerInfo]) {
        (self.builder.files(), self.builder.peers())
    }

    /// Finishes the crawl, returning the trace.
    pub(crate) fn finish(self) -> TraceArena {
        self.builder.finish()
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut impl Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Everything a crawl reports besides the trace itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrawlReport {
    /// Per-day statistics.
    pub stats: Vec<CrawlDayStats>,
    /// Graceful-degradation counters, reconcilable against the trace.
    pub health: CrawlHealth,
}

/// End-to-end convenience: generate network dynamics for `population`
/// and crawl it for the configured number of days.
///
/// Returns the trace and the per-day crawl statistics. See
/// [`run_crawl_full`] for the [`CrawlHealth`] counters as well.
pub fn run_crawl(
    population: &Population,
    net_config: NetConfig,
    crawler_config: CrawlerConfig,
) -> (TraceArena, Vec<CrawlDayStats>) {
    let (trace, report) = run_crawl_full(population, net_config, crawler_config);
    (trace, report.stats)
}

/// [`run_crawl`], also returning the [`CrawlHealth`] report.
pub fn run_crawl_full(
    population: &Population,
    net_config: NetConfig,
    crawler_config: CrawlerConfig,
) -> (TraceArena, CrawlReport) {
    let total_days = population.config.days;
    let mut net = Network::new(population, net_config);
    let mut crawler = Crawler::new(crawler_config);
    net.set_fault_plan(crawler.fault_plan().clone());
    net.refresh_sessions();
    crawler.crawl_day(&mut net, 0, total_days);
    for offset in 1..total_days {
        net.step_day();
        crawler.crawl_day(&mut net, offset, total_days);
    }
    let report = CrawlReport {
        stats: crawler.stats().to_vec(),
        health: crawler.health(),
    };
    (crawler.finish(), report)
}

/// [`run_crawl`], streaming: each day is emitted to `writer`
/// the moment its crawl day completes, so the crawl never holds more
/// than one day of observations (plus the intern tables) in memory.
///
/// The written trace is identical to what [`run_crawl`] + `save_bin`
/// would produce. Returns the crawl report and the finished sink.
pub fn run_crawl_streaming<W: Write + Seek>(
    population: &Population,
    net_config: NetConfig,
    crawler_config: CrawlerConfig,
    mut writer: TraceWriter<W>,
) -> Result<(CrawlReport, W), TraceIoError> {
    let total_days = population.config.days;
    let mut net = Network::new(population, net_config);
    let mut crawler = Crawler::new(crawler_config);
    net.set_fault_plan(crawler.fault_plan().clone());
    net.refresh_sessions();
    crawler.crawl_day(&mut net, 0, total_days);
    if let Some(day) = crawler.take_day(net.day()) {
        writer.write_day_arena(&day)?;
    }
    for offset in 1..total_days {
        net.step_day();
        crawler.crawl_day(&mut net, offset, total_days);
        if let Some(day) = crawler.take_day(net.day()) {
            writer.write_day_arena(&day)?;
        }
    }
    let (files, peers) = crawler.tables();
    let sink = writer.finish(files, peers)?;
    let report = CrawlReport {
        stats: crawler.stats().to_vec(),
        health: crawler.health(),
    };
    Ok((report, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_workload::WorkloadConfig;

    fn pop(days: u32) -> Population {
        let mut c = WorkloadConfig::test_scale(13);
        c.peers = 200;
        c.files = 1_500;
        c.days = days;
        c.cache_max = 300;
        Population::generate(c)
    }

    #[test]
    fn pattern_generation() {
        let p = Crawler::patterns(26 * 26 * 26);
        assert_eq!(p.len(), 26 * 26 * 26);
        assert_eq!(p[0], "aaa");
        assert_eq!(p.last().unwrap(), "zzz");
        assert!(p.iter().all(|s| s.len() == 3));
        let distinct: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(distinct.len(), 26 * 26 * 26, "patterns must be distinct");
        // A reduced sweep stays evenly spaced and distinct.
        let few = Crawler::patterns(100);
        assert_eq!(few.len(), 100);
        assert_eq!(few[0], "aaa");
    }

    #[test]
    fn crawl_produces_a_valid_trace() {
        let mut population = pop(5);
        // The most attractive file is the likeliest to be browsed; give
        // it a size beyond the browse reply's 32-bit size field.
        let big = (0..population.files.len())
            .max_by(|&a, &b| {
                let attr = |i: usize| population.files[i].attractiveness;
                attr(a).total_cmp(&attr(b))
            })
            .expect("files");
        population.files[big].info.size = u64::from(u32::MAX) + 1_000;
        let (trace, stats) = run_crawl(
            &population,
            NetConfig::default(),
            CrawlerConfig {
                outage_days: vec![],
                ..Default::default()
            }
            .budget_for(200, 1.2, 1.2),
        );
        assert_eq!(trace.check_invariants(), Ok(()));
        assert_eq!(stats.len(), 5);
        assert!(
            trace.peers.len() > 50,
            "crawler found {} peers",
            trace.peers.len()
        );
        assert!(trace.days.len() >= 4);
        // Firewalled clients never appear: every observed peer is
        // reachable. (~25% of population is firewalled.)
        assert!(trace.peers.len() < 200);
        // Browsed metadata is the population's, with sizes clamped to the
        // 32-bit size field.
        let truth: HashMap<Digest, &FileInfo> = population
            .files
            .iter()
            .map(|f| (f.info.id, &f.info))
            .collect();
        for file in &trace.files {
            let expected = truth[&file.id];
            assert_eq!(file.kind, expected.kind, "{:?}", file.id);
            assert_eq!(
                file.size,
                expected.size.min(u64::from(u32::MAX)),
                "{:?}",
                file.id
            );
        }
        let big_id = population.files[big].info.id;
        assert!(
            trace.files.iter().any(|f| f.id == big_id),
            "the oversized file was never browsed"
        );
    }

    #[test]
    fn outage_days_produce_no_observations() {
        let population = pop(4);
        let (trace, stats) = run_crawl(
            &population,
            NetConfig::default(),
            CrawlerConfig {
                outage_days: vec![1],
                ..Default::default()
            }
            .budget_for(200, 1.2, 1.2),
        );
        assert_eq!(stats[1].attempts, 0);
        let day1 = population.config.start_day + 1;
        assert!(
            trace.days.iter().all(|d| d.day != day1),
            "no snapshot on the outage day"
        );
    }

    #[test]
    fn tighter_budget_reduces_coverage() {
        let population = pop(6);
        let (_, stats) = run_crawl(
            &population,
            NetConfig::default(),
            CrawlerConfig {
                outage_days: vec![],
                ..Default::default()
            }
            .budget_for(200, 1.5, 0.2),
        );
        let first = stats[1].browsed; // day 0 has a cold address book
        let last = stats.last().unwrap().browsed;
        assert!(
            last < first,
            "coverage should decline with the budget: first {first}, last {last}"
        );
    }

    #[test]
    fn streaming_crawl_equals_batch_crawl() {
        let population = pop(5);
        let config = CrawlerConfig {
            outage_days: vec![2],
            ..Default::default()
        }
        .budget_for(200, 1.2, 1.2);
        let (batch, batch_report) =
            run_crawl_full(&population, NetConfig::default(), config.clone());
        let writer = TraceWriter::new(std::io::Cursor::new(Vec::new())).unwrap();
        let (stream_report, sink) =
            run_crawl_streaming(&population, NetConfig::default(), config, writer).unwrap();
        let streamed = edonkey_trace::io::bin::from_bin(&sink.into_inner()).unwrap();
        assert_eq!(streamed, batch, "streaming and batch crawls must agree");
        assert_eq!(stream_report, batch_report);
    }

    #[test]
    fn quiet_fault_plan_reproduces_the_plain_crawl() {
        let population = pop(5);
        let config = CrawlerConfig {
            outage_days: vec![2],
            ..Default::default()
        }
        .budget_for(200, 1.2, 1.2);
        let (plain, plain_stats) = run_crawl(&population, NetConfig::default(), config.clone());
        let quiet = CrawlerConfig {
            fault: FaultConfig {
                seed: 77, // a seed alone must change nothing
                ..FaultConfig::none()
            },
            retry: RetryPolicy::no_retry(),
            ..config
        };
        let (faulted, report) = run_crawl_full(&population, NetConfig::default(), quiet);
        assert_eq!(faulted, plain, "a quiet plan must be invisible");
        assert_eq!(report.stats, plain_stats);
        assert_eq!(report.health.check_invariants(), Ok(()));
        assert_eq!(report.health.recorded, faulted.snapshot_count() as u64);
        assert_eq!(report.health.truncated, 0);
        assert_eq!(report.health.query_drops, 0);
    }

    #[test]
    fn transient_faults_cost_coverage_and_retries_recover_it() {
        let population = pop(6);
        let base = CrawlerConfig {
            outage_days: vec![],
            ..Default::default()
        }
        .budget_for(200, 3.0, 3.0);
        let fault = FaultConfig {
            seed: 5,
            transient_rate: 0.25,
            ..FaultConfig::none()
        };
        let (clean, _) = run_crawl(&population, NetConfig::default(), base.clone());
        let (no_retry, nr_report) = run_crawl_full(
            &population,
            NetConfig::default(),
            CrawlerConfig {
                fault: fault.clone(),
                retry: RetryPolicy::no_retry(),
                ..base.clone()
            },
        );
        let (retry, r_report) = run_crawl_full(
            &population,
            NetConfig::default(),
            CrawlerConfig {
                fault,
                retry: RetryPolicy::backoff(),
                ..base
            },
        );
        assert_eq!(nr_report.health.check_invariants(), Ok(()));
        assert_eq!(r_report.health.check_invariants(), Ok(()));
        assert!(nr_report.health.timeouts > 0);
        assert!(r_report.health.retries > 0);
        let (clean_n, nr_n, r_n) = (
            clean.snapshot_count(),
            no_retry.snapshot_count(),
            retry.snapshot_count(),
        );
        assert!(
            nr_n < clean_n,
            "faults must cost the no-retry crawler coverage: {nr_n} vs {clean_n}"
        );
        assert!(
            r_n > nr_n,
            "retries must win coverage back: {r_n} vs {nr_n}"
        );
    }

    #[test]
    fn nat_quarantine_stops_wasting_attempts() {
        let population = pop(8);
        let fault = FaultConfig {
            seed: 9,
            nat_prob: 0.4,
            ..FaultConfig::none()
        };
        // A generous budget so no day is truncated: with the budget as
        // the binding constraint, quarantine would *raise* per-day
        // attempts (freed time admits browses that were being abandoned).
        let config = CrawlerConfig {
            outage_days: vec![],
            fault,
            retry: RetryPolicy::backoff(),
            ..Default::default()
        }
        .budget_for(200, 12.0, 3.0);
        let (_, report) = run_crawl_full(&population, NetConfig::default(), config);
        assert!(report.health.quarantined > 0, "NATed peers must be caught");
        // Quarantined peers keep one probe per day, so attempts fall off
        // once the NATed cohort is caught. The address book also grows
        // over the first days (each day discovers only that day's online
        // peers), so the comparison baseline is the peak day, not day 0.
        let peak = report
            .stats
            .iter()
            .map(|d| d.attempts)
            .max()
            .expect("stats non-empty");
        let late = report.stats.last().unwrap().attempts;
        assert!(
            late < peak,
            "quarantine must shed attempts: peak {peak}, last {late}"
        );
        assert_eq!(report.health.check_invariants(), Ok(()));
    }

    #[test]
    fn truncated_browses_are_kept_as_partial_snapshots() {
        let population = pop(4);
        let config = CrawlerConfig {
            outage_days: vec![],
            fault: FaultConfig {
                seed: 3,
                disconnect_rate: 0.5,
                ..FaultConfig::none()
            },
            ..Default::default()
        }
        .budget_for(200, 1.5, 1.5);
        let (trace, report) = run_crawl_full(&population, NetConfig::default(), config);
        assert!(report.health.truncated > 0);
        assert_eq!(trace.check_invariants(), Ok(()));
        assert_eq!(report.health.recorded, trace.snapshot_count() as u64);
    }

    #[test]
    fn burst_days_thin_the_observed_population() {
        let population = pop(6);
        let base = CrawlerConfig {
            outage_days: vec![],
            ..Default::default()
        }
        .budget_for(200, 2.0, 2.0);
        let (clean, _) = run_crawl(&population, NetConfig::default(), base.clone());
        let burst_day = population.config.start_day + 3;
        let config = CrawlerConfig {
            fault: FaultConfig {
                seed: 21,
                burst_days: vec![3],
                burst_offline_prob: 0.9,
                ..FaultConfig::none()
            },
            ..base
        };
        let (trace, report) = run_crawl_full(&population, NetConfig::default(), config);
        let peers_on = |t: &TraceArena| {
            t.days
                .iter()
                .find(|d| d.day == burst_day)
                .map_or(0, |d| d.peer_count())
        };
        let (clean_day, burst) = (peers_on(&clean), peers_on(&trace));
        assert!(
            burst < clean_day / 2,
            "burst day must lose most peers: {burst} vs {clean_day}"
        );
        assert_eq!(report.health.check_invariants(), Ok(()));
    }

    #[test]
    fn browse_denial_and_firewalls_hide_clients() {
        let population = pop(3);
        let net_config = NetConfig {
            browse_disabled_prob: 1.0, // nobody answers browses
            ..Default::default()
        };
        let (trace, stats) = run_crawl(
            &population,
            net_config,
            CrawlerConfig {
                outage_days: vec![],
                ..Default::default()
            }
            .budget_for(200, 1.2, 1.2),
        );
        assert_eq!(trace.peers.len(), 0, "all browses denied");
        assert!(stats.iter().all(|s| s.browsed == 0));
        assert!(stats[0].known_users > 0, "discovery still works");
    }
}
