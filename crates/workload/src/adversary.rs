//! Deterministic adversarial-workload model: sybil, pollution and
//! free-riding injection (DESIGN.md §12).
//!
//! The paper's population is honest: every peer shares what its cache
//! says and answers what it holds. Deployed eDonkey never was — index
//! pollution and sybil flooding were endemic, and the free-rider
//! fraction the paper measures is a *behaviour*, not an accident. This
//! module marks seeded fractions of the population as attackers, the
//! same way [`crate::churn`] marks them offline:
//!
//! * [`AdversaryPlan`] — a seeded, **stateless** per-peer role oracle.
//!   Every decision is a splitmix64-style hash of `(seed, salt, keys)`
//!   — no RNG state is consumed, so a quiet plan
//!   (`all permilles == 0`) leaves a simulation byte-identical to one
//!   that never consulted it. The role draw is band-partitioned over a
//!   rate-independent hash, so raising one kind's permille only widens
//!   that kind's band in place: the attacker set at a lower fraction
//!   is a strict subset of the set at any higher fraction, and
//!   degradation is mechanically monotone per attack kind.
//! * [`RoleTable`] — one plan's per-peer roles, precomputed for the
//!   simulator's per-probe refusal checks and capture draws.
//! * Three attack behaviours, matched to where they bite:
//!   - **Sybils** hold neighbour-list slots. A sybil impersonates the
//!     genuine uploader of an acquisition ([`AdversaryPlan::hijacker`])
//!     and gets *recorded* in its place; the slot it captures answers
//!     nothing ever after.
//!   - **Polluters** poison the *index*. A server-fallback acquisition
//!     may resolve through a polluted record
//!     ([`AdversaryPlan::polluter`]); the download completes (the
//!     querier still starts sharing the file) but the recorded
//!     uploader is the polluter. Exposure scales with how many index
//!     replicas can carry the poisoned record, so federation and DHT
//!     replication *amplify* pollution.
//!   - **Free-riders** answer nothing — the paper's §4.1 population,
//!     promoted to a first-class injected behaviour.
//! * Every adversarial peer, whatever its kind, refuses overlay
//!   answers ([`AdversaryPlan::answers_nothing`]): the query is
//!   delivered and costs a message, but no answer comes back. A
//!   refusal is not a timeout — the peer is online — so no retry or
//!   staleness reaction fires; only a reputation defense can clear the
//!   captured slot.
//!
//! Roles are fixed per peer for the whole run, like a churn schedule's
//! per-peer session phase: an attacker keeps its identity, keeps its
//! captured slots, and keeps refusing — which is exactly why adaptive
//! lists need an *earned-trust* signal (the reputation defense) rather
//! than the timeout/staleness machinery, which never fires on a peer
//! that is online and merely unhelpful.

/// Adversary-model parameters. Integer fractions keep `Eq`/`Hash`
/// derivable and the band-nesting monotonicity argument exact.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct AdversaryConfig {
    /// Seed for every plan draw (independent of the simulation and
    /// churn seeds: the same workload can be replayed under many
    /// plans).
    pub seed: u64,
    /// Fraction of the population playing sybil, in permille.
    pub sybil_permille: u32,
    /// Fraction playing index polluter, in permille.
    pub polluter_permille: u32,
    /// Fraction playing free-rider, in permille.
    pub freerider_permille: u32,
}

impl AdversaryConfig {
    /// No adversaries: consulting the plan changes nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// A sybil-only plan.
    pub fn sybils(seed: u64, permille: u32) -> Self {
        AdversaryConfig {
            seed,
            sybil_permille: permille,
            ..Self::default()
        }
    }

    /// A polluter-only plan.
    pub fn polluters(seed: u64, permille: u32) -> Self {
        AdversaryConfig {
            seed,
            polluter_permille: permille,
            ..Self::default()
        }
    }

    /// A free-rider-only plan.
    pub fn freeriders(seed: u64, permille: u32) -> Self {
        AdversaryConfig {
            seed,
            freerider_permille: permille,
            ..Self::default()
        }
    }

    /// Adds sybils to an existing plan.
    pub fn with_sybils(mut self, permille: u32) -> Self {
        self.sybil_permille = permille;
        self
    }

    /// Adds polluters to an existing plan.
    pub fn with_polluters(mut self, permille: u32) -> Self {
        self.polluter_permille = permille;
        self
    }

    /// Adds free-riders to an existing plan.
    pub fn with_freeriders(mut self, permille: u32) -> Self {
        self.freerider_permille = permille;
        self
    }

    /// True iff the plan can never mark anyone adversarial.
    pub fn is_quiet(&self) -> bool {
        self.sybil_permille == 0 && self.polluter_permille == 0 && self.freerider_permille == 0
    }
}

/// What a peer plays for the whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Shares and answers normally.
    Honest,
    /// Captures neighbour-list slots by impersonating uploaders.
    Sybil,
    /// Poisons index records on server fallbacks.
    Polluter,
    /// Holds whatever slots it earns but serves nothing.
    FreeRider,
}

/// Domain-separation salts: independent decision streams share one
/// seed without correlating (same scheme as `churn::SALT_SESSION`).
const SALT_ROLE: u64 = 0xad5e_77a9_1b3c_0001;
const SALT_HIJACK: u64 = 0xad5e_77a9_1b3c_0002;
const SALT_POLLUTE: u64 = 0xad5e_77a9_1b3c_0003;

use crate::mix::splitmix64 as mix;

/// The stateless adversary oracle built from an [`AdversaryConfig`].
#[derive(Clone, Debug)]
pub struct AdversaryPlan {
    config: AdversaryConfig,
}

impl AdversaryPlan {
    /// Wraps a config; no precomputation, the plan is pure hashing.
    pub fn new(config: AdversaryConfig) -> Self {
        AdversaryPlan { config }
    }

    /// The wrapped config.
    pub fn config(&self) -> &AdversaryConfig {
        &self.config
    }

    /// True iff the plan can never mark anyone adversarial.
    pub fn is_quiet(&self) -> bool {
        self.config.is_quiet()
    }

    /// One deterministic draw on the decision stream `salt`.
    fn roll(&self, salt: u64, keys: [u64; 3]) -> u64 {
        let mut h = mix(self.config.seed ^ salt);
        for k in keys {
            h = mix(h ^ k);
        }
        h
    }

    /// The role `peer` plays. The underlying hash is
    /// fraction-independent; the permilles only partition `[0, 1000)`
    /// into bands `[sybil | polluter | free-rider | honest]`, so
    /// raising one kind's permille (others fixed) widens that band in
    /// place and the kind's peer set nests across fractions.
    pub fn role(&self, peer: u32) -> Role {
        let c = &self.config;
        if c.is_quiet() {
            return Role::Honest;
        }
        let h = (self.roll(SALT_ROLE, [peer as u64, 0, 0]) % 1000) as u32;
        if h < c.sybil_permille {
            Role::Sybil
        } else if h < c.sybil_permille.saturating_add(c.polluter_permille) {
            Role::Polluter
        } else if h < c
            .sybil_permille
            .saturating_add(c.polluter_permille)
            .saturating_add(c.freerider_permille)
        {
            Role::FreeRider
        } else {
            Role::Honest
        }
    }

    /// Does `peer` refuse to answer overlay queries? True for every
    /// adversarial role: sybils and polluters hold slots without
    /// serving, free-riders by definition. The refusal is *not* a
    /// timeout — the peer is online and the query costs a message.
    pub fn answers_nothing(&self, peer: u32) -> bool {
        self.role(peer) != Role::Honest
    }

    /// The sybil (if any) that hijacks `querier`'s acquisition at
    /// stream position `t`: one stateless candidate draw, a capture
    /// exactly when the candidate plays sybil. The capture probability
    /// therefore tracks `sybil_permille` mechanically.
    pub fn hijacker(&self, querier: u32, t: u64, n_peers: usize) -> Option<u32> {
        self.hijacker_by(querier, t, n_peers, |c| self.role(c))
    }

    /// [`AdversaryPlan::hijacker`] with candidates' roles read from `role`.
    #[inline(always)]
    fn hijacker_by(
        &self,
        querier: u32,
        t: u64,
        n_peers: usize,
        role: impl Fn(u32) -> Role,
    ) -> Option<u32> {
        if self.config.sybil_permille == 0 || n_peers == 0 {
            return None;
        }
        let c = (self.roll(SALT_HIJACK, [querier as u64, t, 0]) % n_peers as u64) as u32;
        (role(c) == Role::Sybil).then_some(c)
    }

    /// The polluter (if any) behind a server-fallback acquisition of
    /// `file`, given that `exposure` index replicas could carry the
    /// poisoned record. Each replica is one independent candidate
    /// draw; the first polluting candidate wins. More replicas mean
    /// more draws — replication amplifies pollution.
    pub fn polluter(&self, file: u64, exposure: u32, n_peers: usize) -> Option<u32> {
        self.polluter_by(file, exposure, n_peers, |c| self.role(c))
    }

    /// [`AdversaryPlan::polluter`] with candidates' roles read from `role`.
    #[inline(always)]
    fn polluter_by(
        &self,
        file: u64,
        exposure: u32,
        n_peers: usize,
        role: impl Fn(u32) -> Role,
    ) -> Option<u32> {
        if self.config.polluter_permille == 0 || n_peers == 0 {
            return None;
        }
        for i in 0..exposure.max(1) {
            let c = (self.roll(SALT_POLLUTE, [file, i as u64, 0]) % n_peers as u64) as u32;
            if role(c) == Role::Polluter {
                return Some(c);
            }
        }
        None
    }

    /// The sybil census capture: every peer playing sybil adopts a
    /// copy of the population's largest cache, advertising the most
    /// popular catalogue to maximise slot capture. A quiet plan is a
    /// no-op by construction (nobody plays sybil).
    pub fn rewrite_caches<T: Clone>(&self, caches: &mut [Vec<T>]) {
        if self.config.sybil_permille == 0 {
            return;
        }
        let Some(donor) = (0..caches.len()).max_by_key(|&p| (caches[p].len(), usize::MAX - p))
        else {
            return;
        };
        if caches[donor].is_empty() {
            return;
        }
        let bait = caches[donor].clone();
        for (p, cache) in caches.iter_mut().enumerate() {
            if p != donor && self.role(p as u32) == Role::Sybil {
                *cache = bait.clone();
            }
        }
    }
}

/// Every peer's role under one plan, precomputed: the plan's
/// decisions with the per-peer role hash replaced by a load. Peers the
/// table does not cover fall back to [`AdversaryPlan::role`], which
/// stays the definition.
#[derive(Clone, Debug)]
pub struct RoleTable {
    plan: AdversaryPlan,
    roles: Vec<Role>,
}

impl RoleTable {
    /// The roles of peers `0..n_peers` under `plan`.
    pub fn new(plan: AdversaryPlan, n_peers: usize) -> Self {
        let roles = (0..n_peers as u32).map(|p| plan.role(p)).collect();
        RoleTable { plan, roles }
    }

    /// The plan the table was built from.
    pub fn plan(&self) -> &AdversaryPlan {
        &self.plan
    }

    /// [`AdversaryPlan::role`].
    #[inline(always)]
    pub fn role(&self, peer: u32) -> Role {
        match self.roles.get(peer as usize) {
            Some(&role) => role,
            None => self.plan.role(peer),
        }
    }

    /// [`AdversaryPlan::answers_nothing`].
    #[inline(always)]
    pub fn answers_nothing(&self, peer: u32) -> bool {
        self.role(peer) != Role::Honest
    }

    /// [`AdversaryPlan::hijacker`].
    #[inline(always)]
    pub fn hijacker(&self, querier: u32, t: u64, n_peers: usize) -> Option<u32> {
        self.plan.hijacker_by(querier, t, n_peers, |c| self.role(c))
    }

    /// [`AdversaryPlan::polluter`].
    #[inline(always)]
    pub fn polluter(&self, file: u64, exposure: u32, n_peers: usize) -> Option<u32> {
        self.plan
            .polluter_by(file, exposure, n_peers, |c| self.role(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_marks_anyone() {
        let p = AdversaryPlan::new(AdversaryConfig::none());
        assert!(p.is_quiet());
        for peer in 0..100 {
            assert_eq!(p.role(peer), Role::Honest);
            assert!(!p.answers_nothing(peer));
        }
        assert_eq!(p.hijacker(3, 7, 100), None);
        assert_eq!(p.polluter(3, 8, 100), None);
    }

    #[test]
    fn draws_are_deterministic_and_seed_sensitive() {
        let a = AdversaryPlan::new(AdversaryConfig::sybils(7, 200));
        let b = AdversaryPlan::new(AdversaryConfig::sybils(7, 200));
        let c = AdversaryPlan::new(AdversaryConfig::sybils(8, 200));
        let mut differs = false;
        for peer in 0..500 {
            assert_eq!(a.role(peer), b.role(peer));
            if a.role(peer) != c.role(peer) {
                differs = true;
            }
        }
        assert!(differs, "different seeds must give different plans");
    }

    #[test]
    fn bands_nest_per_attack_kind() {
        // Raising one kind's permille only grows that kind's set.
        for (lo, hi) in [
            (
                AdversaryConfig::sybils(42, 100),
                AdversaryConfig::sybils(42, 400),
            ),
            (
                AdversaryConfig::polluters(42, 100),
                AdversaryConfig::polluters(42, 400),
            ),
            (
                AdversaryConfig::freeriders(42, 100),
                AdversaryConfig::freeriders(42, 400),
            ),
        ] {
            let lo = AdversaryPlan::new(lo);
            let hi = AdversaryPlan::new(hi);
            for peer in 0..1000 {
                if lo.role(peer) != Role::Honest {
                    assert_eq!(lo.role(peer), hi.role(peer));
                }
            }
        }
    }

    #[test]
    fn role_fractions_match_permilles() {
        let p = AdversaryPlan::new(
            AdversaryConfig::sybils(3, 100)
                .with_polluters(150)
                .with_freeriders(250),
        );
        let mut counts = [0u64; 4];
        let total = 4000u64;
        for peer in 0..4000 {
            let i = match p.role(peer) {
                Role::Honest => 0,
                Role::Sybil => 1,
                Role::Polluter => 2,
                Role::FreeRider => 3,
            };
            counts[i] += 1;
        }
        // Within 25% relative of the configured fraction.
        for (count, permille) in [(counts[1], 100u64), (counts[2], 150), (counts[3], 250)] {
            let expect = total * permille / 1000;
            assert!(
                count * 4 >= expect * 3 && count * 4 <= expect * 5,
                "count {count} vs expected {expect}"
            );
        }
        assert_eq!(counts.iter().sum::<u64>(), total);
    }

    #[test]
    fn hijacker_and_polluter_respect_roles() {
        let p = AdversaryPlan::new(AdversaryConfig::sybils(11, 300).with_polluters(300));
        let mut hijacks = 0;
        let mut pollutions = 0;
        for t in 0..400u64 {
            if let Some(s) = p.hijacker(5, t, 200) {
                assert_eq!(p.role(s), Role::Sybil);
                hijacks += 1;
            }
            if let Some(s) = p.polluter(t, 2, 200) {
                assert_eq!(p.role(s), Role::Polluter);
                pollutions += 1;
            }
        }
        assert!(hijacks > 0, "a 30% sybil plan must capture something");
        assert!(pollutions > 0, "a 30% polluter plan must poison something");
        // Stateless: the same keys always land the same answers.
        assert_eq!(p.hijacker(5, 9, 200), p.hijacker(5, 9, 200));
        assert_eq!(p.polluter(9, 2, 200), p.polluter(9, 2, 200));
    }

    #[test]
    fn pollution_grows_with_exposure() {
        // More index replicas mean more candidate draws: the polluted
        // set at exposure k is a subset of the set at exposure k' > k.
        let p = AdversaryPlan::new(AdversaryConfig::polluters(13, 150));
        let mut counts = Vec::new();
        for exposure in [1u32, 2, 8] {
            let mut polluted = 0;
            for file in 0..1000u64 {
                if p.polluter(file, exposure, 300).is_some() {
                    polluted += 1;
                } else {
                    continue;
                }
                // Subset check: polluted at this exposure stays
                // polluted at every higher one.
                assert!(p.polluter(file, 8, 300).is_some());
            }
            counts.push(polluted);
        }
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2]);
        assert!(counts[2] > counts[0], "8 replicas must beat 1 somewhere");
    }

    #[test]
    fn rewrite_caches_clones_the_largest_into_sybils() {
        let quiet = AdversaryPlan::new(AdversaryConfig::none());
        let mut caches: Vec<Vec<u32>> = (0..50).map(|p| (0..p).collect()).collect();
        let before = caches.clone();
        quiet.rewrite_caches(&mut caches);
        assert_eq!(caches, before, "a quiet plan never rewrites");

        let p = AdversaryPlan::new(AdversaryConfig::sybils(5, 400));
        p.rewrite_caches(&mut caches);
        let bait: Vec<u32> = (0..49).collect();
        let mut rewrote = 0;
        for (peer, cache) in caches.iter().enumerate() {
            if p.role(peer as u32) == Role::Sybil && peer != 49 {
                assert_eq!(cache, &bait, "sybil {peer} must carry the bait cache");
                rewrote += 1;
            } else {
                assert_eq!(cache, &before[peer], "honest caches stay put");
            }
        }
        assert!(rewrote > 0, "a 40% plan must rewrite someone");
    }
}
