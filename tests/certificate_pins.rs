//! Pins the placement seeds the two capacity-certifying mappers capture,
//! certificates included, so refactors of the placement layer can prove they
//! changed nothing a persisted seed records.
//!
//! `tests/mapper_bitident.rs` pins the mappings; a placement heuristic can
//! keep every mapping and still probe capacities in a different order or
//! number, which moves a seed's `cap_need` / `cap_ceil` window and with it
//! the set of fabrics the seed transfers to. This table hashes the whole
//! seed JSON, so such a change fails here. Each seed's functional-unit
//! entries must also be the open window `(0, u32::MAX)`: unit occupancy
//! probes are never recorded, which is what lets the placement heuristics
//! skip structurally dead candidates without moving a certificate.
//!
//! The suite is the default sweep plan's four workloads on the 2x2 Plaid
//! fabric at both configuration depths and all three communication presets,
//! plus Plaid ladders of other workloads that fail at least three II rungs
//! before they map, so their seeds certify the repair loop's capacity probes
//! on failing rungs.
//!
//! Run with `PLAID_PIN_PRINT=1` to print the current digests instead of
//! asserting (the capture mode used to generate the table).

use plaid_arch::{ArchClass, Architecture, CommSpec, DesignPoint};
use plaid_dfg::Dfg;
use plaid_mapper::{fnv1a64, MapError, PlacementSeed, PlaidMapper, SaMapper, SeededMapping};
use plaid_workloads::table2_workloads;

/// Plaid ladders outside the default plan's workloads whose mapping comes
/// after three or more failed II rungs, as `(workload, rows, cols, depth,
/// preset)`.
const FAILING_LADDERS: &[(&str, u32, u32, u32, CommSpec)] = &[
    ("atax_u4", 2, 2, 16, CommSpec::LEAN),
    ("atax_u4", 2, 2, 16, CommSpec::RICH),
    ("atax_u4", 3, 3, 16, CommSpec::ALIGNED),
    ("gesumm_u4", 2, 4, 16, CommSpec::LEAN),
    ("conv3x3", 2, 4, 8, CommSpec::LEAN),
    ("dwconv_u5", 2, 4, 16, CommSpec::ALIGNED),
];

/// The default plan's workloads (every 8th registry entry) crossed with
/// `plaid-2x2` at depths 8 and 16 under the lean, aligned and rich presets,
/// then [`FAILING_LADDERS`].
fn suite() -> Vec<(String, Dfg, Architecture)> {
    let point = |rows, cols, config_entries, comm| DesignPoint {
        class: ArchClass::Plaid,
        rows,
        cols,
        config_entries,
        comm,
    };
    let mut cases = Vec::new();
    let workloads = table2_workloads();
    for w in workloads.iter().step_by(8) {
        let dfg = w.lower().expect("workload lowers");
        for config_entries in [8, 16] {
            for comm in CommSpec::presets() {
                let point = point(2, 2, config_entries, comm);
                cases.push((
                    format!("{}/{}", w.name, point.label()),
                    dfg.clone(),
                    point.build(),
                ));
            }
        }
    }
    for &(name, rows, cols, config_entries, comm) in FAILING_LADDERS {
        let w = workloads
            .iter()
            .find(|w| w.name == name)
            .unwrap_or_else(|| panic!("workload {name} is registered"));
        let point = point(rows, cols, config_entries, comm);
        cases.push((
            format!("{name}/{}", point.label()),
            w.lower().expect("workload lowers"),
            point.build(),
        ));
    }
    cases
}

/// FNV-1a of the captured seed's JSON, or `0` when the ladder found no
/// mapping (a pinned outcome too).
fn seed_digest(result: Result<SeededMapping, MapError>) -> u64 {
    result.map_or(0, |s| {
        fnv1a64(
            serde_json::to_string(&s.seed)
                .expect("seed serializes")
                .as_bytes(),
        )
    })
}

/// The functional units whose certificate entry in `seed` is not the open
/// window `(0, u32::MAX)`. A unit's capacity is 1 on every fabric, so its
/// occupancy probes are never recorded (`MapState::can_place`).
fn closed_unit_entries(seed: &PlacementSeed, arch: &Architecture) -> Vec<u32> {
    assert!(
        !seed.cap_need.is_empty(),
        "{} seeds are certified",
        seed.mapper
    );
    arch.functional_units()
        .map(|r| r.id.0)
        .filter(|&fu| (seed.cap_need[fu as usize], seed.cap_ceil[fu as usize]) != (0, u32::MAX))
        .collect()
}

/// `(case, sa, plaid)` seed digests.
const PINNED: &[(&str, u64, u64)] = &[
    ("atax_u2/plaid-2x2/d8/lean", 0x0, 0x0),
    ("atax_u2/plaid-2x2/d8/aligned", 0xeedb89d5201e8fd7, 0x0),
    ("atax_u2/plaid-2x2/d8/rich", 0x61a8749b2d10e51b, 0x0),
    (
        "atax_u2/plaid-2x2/d16/lean",
        0x8accc4e22edd7068,
        0xce2a529d1007700f,
    ),
    (
        "atax_u2/plaid-2x2/d16/aligned",
        0xeedb89d5201e8fd7,
        0x87aa30235edd7f68,
    ),
    (
        "atax_u2/plaid-2x2/d16/rich",
        0x61a8749b2d10e51b,
        0x9d2802fd266d0830,
    ),
    ("doitgen_u4/plaid-2x2/d8/lean", 0x0, 0x0),
    ("doitgen_u4/plaid-2x2/d8/aligned", 0x0, 0x0),
    ("doitgen_u4/plaid-2x2/d8/rich", 0x0, 0x0),
    (
        "doitgen_u4/plaid-2x2/d16/lean",
        0xeb40f367e09b307c,
        0xf091160cf0e93ea7,
    ),
    (
        "doitgen_u4/plaid-2x2/d16/aligned",
        0xaff9381e00ed40bc,
        0xeb24d2b092f9ccc9,
    ),
    (
        "doitgen_u4/plaid-2x2/d16/rich",
        0xb46b07e838932f08,
        0xfaf4c8b4ea13b311,
    ),
    (
        "fc/plaid-2x2/d8/lean",
        0xcd5afbbde8c5a2b,
        0x93899dc126b4440e,
    ),
    (
        "fc/plaid-2x2/d8/aligned",
        0x53fa08ab853a3ef4,
        0x4b13dc3f99494fee,
    ),
    (
        "fc/plaid-2x2/d8/rich",
        0x31f780167e1f3688,
        0x392837b81635bfc6,
    ),
    (
        "fc/plaid-2x2/d16/lean",
        0xcd5afbbde8c5a2b,
        0x93899dc126b4440e,
    ),
    (
        "fc/plaid-2x2/d16/aligned",
        0x53fa08ab853a3ef4,
        0x4b13dc3f99494fee,
    ),
    (
        "fc/plaid-2x2/d16/rich",
        0x31f780167e1f3688,
        0x392837b81635bfc6,
    ),
    ("gramsc_u4/plaid-2x2/d8/lean", 0x0, 0x0),
    ("gramsc_u4/plaid-2x2/d8/aligned", 0x0, 0x0),
    ("gramsc_u4/plaid-2x2/d8/rich", 0x0, 0x0),
    ("gramsc_u4/plaid-2x2/d16/lean", 0xb801a775e3c3fdc8, 0x0),
    (
        "gramsc_u4/plaid-2x2/d16/aligned",
        0xafdf3dac165351ea,
        0x2a0cf5cd2d7636ea,
    ),
    (
        "gramsc_u4/plaid-2x2/d16/rich",
        0x5ae9298a60ea5d0e,
        0x4f6ad5ccbfca9c42,
    ),
    ("atax_u4/plaid-2x2/d16/lean", 0x0, 0x68e972e703f89ba5),
    (
        "atax_u4/plaid-2x2/d16/rich",
        0x9a1a76bc611f36c4,
        0x8633c6819ab03f4b,
    ),
    (
        "atax_u4/plaid-3x3/d16/aligned",
        0xab66860255ea724f,
        0xed6e1d0b400511fe,
    ),
    ("gesumm_u4/plaid-2x4/d16/lean", 0x0, 0xc527cd8b5513b196),
    (
        "conv3x3/plaid-2x4/d8/lean",
        0x5ef2858ede742039,
        0xae85c1b42d7a0800,
    ),
    (
        "dwconv_u5/plaid-2x4/d16/aligned",
        0x78214dc81856434b,
        0x7a1ebac7053c5fbd,
    ),
];

#[test]
fn captured_seeds_and_certificates_are_pinned() {
    let print_mode = std::env::var("PLAID_PIN_PRINT").is_ok();
    let sa = SaMapper::default();
    let plaid = PlaidMapper::default();
    let mut failures = Vec::new();
    for (case, dfg, arch) in suite() {
        let seeds = (
            sa.map_with_seed(&dfg, &arch, None),
            plaid.map_with_seed(&dfg, &arch, None),
        );
        for seeded in [&seeds.0, &seeds.1].into_iter().flatten() {
            let closed = closed_unit_entries(&seeded.seed, &arch);
            assert!(
                closed.is_empty(),
                "{case}: {} certifies functional units {closed:?}",
                seeded.seed.mapper
            );
        }
        let got = (seed_digest(seeds.0), seed_digest(seeds.1));
        if print_mode {
            println!("    (\"{case}\", {:#x}, {:#x}),", got.0, got.1);
            continue;
        }
        let pinned = PINNED
            .iter()
            .find(|(name, ..)| *name == case)
            .unwrap_or_else(|| panic!("case {case} missing from the pinned table"));
        if got != (pinned.1, pinned.2) {
            failures.push(format!(
                "{case}: got (sa={:#x}, plaid={:#x}), pinned ({:#x}, {:#x})",
                got.0, got.1, pinned.1, pinned.2
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "captured seeds diverged from the pinned table:\n{}",
        failures.join("\n")
    );
}
