//! Acceptance matrix for the adversarial workload plane (DESIGN.md
//! §12): sybil, pollution and free-rider injection over the nested role
//! bands, and the per-neighbour reputation defense.
//!
//! What the matrix pins:
//! * **Monotone degradation** — a larger attacker fraction marks a
//!   strict superset of peers (the bands nest), so one-hop hits can
//!   only fall as each attack kind scales up;
//! * **Ledger discipline** — every adversarial run's `SearchHealth`
//!   reconciles, and each attack kind moves exactly its own counters;
//! * **Defense direction** — the armed defense never does worse than
//!   no defense, fires under a mixed attack, and is a bitwise no-op on
//!   honest runs; for Random lists the attacked run equals the
//!   refusal-only twin bit-for-bit (nothing is ever recorded, so the
//!   capture channel does not exist);
//! * **Determinism** — the same plan replays identically, and distinct
//!   adversary seeds change the drawn roles without breaking any
//!   invariant.
//!
//! A golden fixture (`tests/data/adversary_golden.tsv`) pins one
//! attacked and one defended run per policy — hits plus the full
//! attack/defense ledger. Regenerate with
//! `EDONKEY_BLESS=1 cargo test --test adversary` after an *intentional*
//! change to the plan draws or the defense.

use std::fmt::Write as _;
use std::sync::OnceLock;

use edonkey_repro::semsearch::neighbours::PolicyKind;
use edonkey_repro::semsearch::sim::{AvailabilityConfig, QueryPolicy, SearchHealth, SimResult};
use edonkey_repro::semsearch::{sweep_cells, AdversaryConfig, SimConfig, CHURN_POLICIES};
use edonkey_repro::trace::compact::CacheArena;
use edonkey_repro::trace::pipeline::filter;
use edonkey_repro::workload::{generate_trace, WorkloadConfig};

const SEED: u64 = 20060418;
const ADVERSARY_SEED: u64 = SEED ^ 0xad5e;
const LIST_SIZE: usize = 20;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/adversary_golden.tsv"
);

/// One shared filtered static view for the whole file (generation
/// dominates test time; every check is read-only on it).
fn arena() -> &'static CacheArena {
    static W: OnceLock<CacheArena> = OnceLock::new();
    W.get_or_init(|| {
        let mut config = WorkloadConfig::test_scale(SEED);
        config.peers = 1_000;
        config.files = 20_000;
        config.topics = 200;
        config.days = 12;
        let (_, trace) = generate_trace(config);
        filter(&trace).arena.static_arena()
    })
}

/// One cell through the sweep scheduler.
fn cell(config: &SimConfig) -> (SimResult, SearchHealth) {
    sweep_cells(arena(), std::slice::from_ref(config)).remove(0)
}

/// A `SimConfig` under one adversary plan (no churn: the adversary is
/// the only availability signal, so every miss is attributable).
fn config(policy: PolicyKind, adversary: AdversaryConfig, defended: bool) -> SimConfig {
    let mut availability = AvailabilityConfig::none()
        .with_query(QueryPolicy::no_retry())
        .with_adversary(adversary);
    if defended {
        availability = availability.with_reputation();
    }
    SimConfig {
        list_size: LIST_SIZE,
        policy,
        two_hop: false,
        seed: SEED,
        availability,
    }
}

/// The nested role bands make degradation mechanical: each attack kind,
/// scaled over a superset chain of fractions, can only lose hits — and
/// each kind moves exactly its own ledger counters.
#[test]
fn each_attack_kind_degrades_hits_monotonically() {
    type Make = fn(u64, u32) -> AdversaryConfig;
    let kinds: [(&str, Make); 3] = [
        ("sybil", AdversaryConfig::sybils),
        ("polluter", AdversaryConfig::polluters),
        ("freerider", AdversaryConfig::freeriders),
    ];
    for policy in CHURN_POLICIES {
        for (kind, make) in kinds {
            let mut prev = u64::MAX;
            for permille in [0u32, 100, 200, 400] {
                let cfg = config(policy, make(ADVERSARY_SEED, permille), false);
                let (result, health) = cell(&cfg);
                health.expect_reconciled(&result, &cfg);
                assert!(
                    result.one_hop_hits <= prev,
                    "{policy:?}/{kind} at {permille} permille: hits rose under a \
                     larger attacker fraction ({} > {prev})",
                    result.one_hop_hits
                );
                prev = result.one_hop_hits;
                if permille == 0 {
                    assert_eq!(health.wasted_queries, 0, "{policy:?}/{kind}: quiet plan");
                    continue;
                }
                // Every adversarial peer refuses overlay answers.
                assert!(health.wasted_queries > 0, "{policy:?}/{kind} at {permille}");
                // Undefended runs never evict.
                assert_eq!(health.reputation_evictions, 0, "{policy:?}/{kind}");
                // Each kind owns its capture counter.
                match kind {
                    "sybil" => {
                        assert!(health.sybil_slots_held > 0, "{policy:?} at {permille}");
                        assert_eq!(health.polluted_acquisitions, 0, "{policy:?}");
                    }
                    "polluter" => {
                        assert!(health.polluted_acquisitions > 0, "{policy:?} at {permille}");
                        assert_eq!(health.sybil_slots_held, 0, "{policy:?}");
                    }
                    _ => {
                        assert_eq!(health.sybil_slots_held, 0, "{policy:?}");
                        assert_eq!(health.polluted_acquisitions, 0, "{policy:?}");
                    }
                }
            }
        }
    }
}

/// Defense direction under a 10% sybil+pollution mix, against the
/// refusal-only twin plan (`freeriders` over the same nested band —
/// identical refusals, no capture): refusing holders are an
/// irreducible loss, capture costs extra, the armed defense claws hits
/// back and never does worse than no defense.
#[test]
fn defense_recovers_against_the_mixed_attack() {
    let mix = AdversaryConfig::sybils(ADVERSARY_SEED, 50).with_polluters(50);
    let twin = AdversaryConfig::freeriders(ADVERSARY_SEED, 100);
    for policy in CHURN_POLICIES {
        let run = |adversary: AdversaryConfig, defended: bool| {
            let cfg = config(policy, adversary, defended);
            let (result, health) = cell(&cfg);
            health.expect_reconciled(&result, &cfg);
            (result, health)
        };
        let (honest, honest_health) = run(AdversaryConfig::none(), false);
        let (twinned, _) = run(twin.clone(), false);
        let (attacked, attacked_health) = run(mix.clone(), false);
        let (defended, defended_health) = run(mix.clone(), true);
        assert_eq!(honest_health.wasted_queries, 0, "{policy:?}");
        assert!(
            attacked.one_hop_hits <= twinned.one_hop_hits
                && twinned.one_hop_hits <= honest.one_hop_hits,
            "{policy:?}: capture must cost hits on top of the refusal floor \
             (honest {}, twin {}, attacked {})",
            honest.one_hop_hits,
            twinned.one_hop_hits,
            attacked.one_hop_hits
        );
        assert!(
            attacked_health.sybil_slots_held > 0 && attacked_health.polluted_acquisitions > 0,
            "{policy:?}: the mix must land both capture kinds"
        );
        assert!(
            defended.one_hop_hits >= attacked.one_hop_hits,
            "{policy:?}: the armed defense must never do worse than no defense"
        );
        assert!(
            defended_health.reputation_evictions > 0,
            "{policy:?}: the defense must fire under the mix"
        );
        assert!(
            defended_health.wasted_queries < attacked_health.wasted_queries,
            "{policy:?}: banning refusers must cut wasted queries \
             (attacked {}, defended {})",
            attacked_health.wasted_queries,
            defended_health.wasted_queries
        );
        if policy == PolicyKind::Random {
            // Random lists record nothing: the capture channel does
            // not exist, so the attacked run IS the twin, bit for bit.
            assert_eq!(
                attacked, twinned,
                "Random: sybils and polluters must reduce to pure refusers"
            );
        }
    }
}

/// An armed defense on an honest run is a bitwise no-op, and a seeded
/// quiet plan is invisible: both replay the plain honest run exactly.
#[test]
fn honest_runs_ignore_quiet_plans_and_armed_defenses() {
    for policy in CHURN_POLICIES {
        let (expected, expected_health) = cell(&config(policy, AdversaryConfig::none(), false));
        for (label, adversary, defended) in [
            ("armed defense", AdversaryConfig::none(), true),
            ("quiet plan", AdversaryConfig::sybils(0xfeed_beef, 0), false),
            (
                "armed quiet plan",
                AdversaryConfig::sybils(0xfeed_beef, 0),
                true,
            ),
        ] {
            let (result, health) = cell(&config(policy, adversary, defended));
            assert_eq!(result, expected, "{policy:?}: {label}");
            assert_eq!(health, expected_health, "{policy:?}: {label}");
        }
    }
}

/// The plan is a pure function of its seed: replaying any adversarial
/// cell reproduces it bit-for-bit, and each of three distinct seeds
/// yields a reconciled, deterministic run of its own.
#[test]
fn adversarial_runs_replay_bit_identically_across_seeds() {
    for adversary_seed in [ADVERSARY_SEED, 0x0dd5_eed5, u64::MAX] {
        let mix = AdversaryConfig::sybils(adversary_seed, 150).with_freeriders(100);
        for defended in [false, true] {
            let cfg = config(PolicyKind::Lru, mix.clone(), defended);
            let (first, first_health) = cell(&cfg);
            let (second, second_health) = cell(&cfg);
            first_health.expect_reconciled(&first, &cfg);
            assert_eq!(
                first, second,
                "seed {adversary_seed:#x} defended {defended}"
            );
            assert_eq!(
                first_health, second_health,
                "seed {adversary_seed:#x} defended {defended}"
            );
            assert!(
                first_health.sybil_slots_held > 0,
                "seed {adversary_seed:#x}"
            );
        }
    }
}

/// Renders the fixture: one attacked and one defended run per policy
/// under the pinned 10% mix — hits plus the full attack/defense ledger.
fn golden_fixture() -> String {
    let mix = AdversaryConfig::sybils(ADVERSARY_SEED, 50).with_polluters(50);
    let mut out = String::from(
        "# adversary golden fixture v1 — bless with EDONKEY_BLESS=1\n\
         # mix: 50 permille sybils + 50 permille polluters, list 20, no churn\n",
    );
    for policy in CHURN_POLICIES {
        for defended in [false, true] {
            let cfg = config(policy, mix.clone(), defended);
            let (result, health) = cell(&cfg);
            writeln!(
                out,
                "run\t{}\tdefended={defended}\tseed={SEED}\tadversary_seed={ADVERSARY_SEED}\t\
                 requests={}\thits={}\twasted={}\tsybil_slots_held={}\t\
                 polluted_acquisitions={}\treputation_evictions={}\tserver_fallback={}",
                policy.name(),
                result.requests,
                result.hits(),
                health.wasted_queries,
                health.sybil_slots_held,
                health.polluted_acquisitions,
                health.reputation_evictions,
                health.server_fallback
            )
            .unwrap();
        }
    }
    out
}

/// The checked-in fixture must keep matching what the code produces —
/// any drift in the role draws, the capture paths or the defense is an
/// intentional-change gate.
#[test]
fn golden_fixture_pins_attack_and_defense_ledgers() {
    let rendered = golden_fixture();
    if std::env::var("EDONKEY_BLESS").is_ok() {
        std::fs::write(FIXTURE, &rendered).expect("bless fixture");
    }
    let expected = std::fs::read_to_string(FIXTURE).expect("read checked-in fixture");
    assert_eq!(
        rendered, expected,
        "adversary plan or defense drifted from the blessed fixture — \
         if intentional, regenerate with EDONKEY_BLESS=1"
    );
}
