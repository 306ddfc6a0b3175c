//! Pins the placement seeds the two capacity-certifying mappers capture,
//! certificates included, so refactors of the placement layer can prove they
//! changed nothing a persisted seed records.
//!
//! `tests/mapper_bitident.rs` pins the mappings; a placement heuristic can
//! keep every mapping and still probe capacities in a different order or
//! number, which moves a seed's `cap_need` / `cap_ceil` window and with it
//! the set of fabrics the seed transfers to. This table hashes the whole
//! seed JSON, so such a change fails here.
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
use plaid_mapper::{fnv1a64, MapError, PlaidMapper, SaMapper, SeededMapping};
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

/// `(case, sa, plaid)` seed digests.
const PINNED: &[(&str, u64, u64)] = &[
    ("atax_u2/plaid-2x2/d8/lean", 0x0, 0x0),
    ("atax_u2/plaid-2x2/d8/aligned", 0x3a5f135e80d5d48f, 0x0),
    ("atax_u2/plaid-2x2/d8/rich", 0xb6b6fe1f61c55d93, 0x0),
    (
        "atax_u2/plaid-2x2/d16/lean",
        0xbe1c9b6f655b6c5c,
        0x25b96b7c6170b7d7,
    ),
    (
        "atax_u2/plaid-2x2/d16/aligned",
        0x3a5f135e80d5d48f,
        0x815a780d4814b9ec,
    ),
    (
        "atax_u2/plaid-2x2/d16/rich",
        0xb6b6fe1f61c55d93,
        0x3a016dfebf18074,
    ),
    ("doitgen_u4/plaid-2x2/d8/lean", 0x0, 0x0),
    ("doitgen_u4/plaid-2x2/d8/aligned", 0x0, 0x0),
    ("doitgen_u4/plaid-2x2/d8/rich", 0x0, 0x0),
    (
        "doitgen_u4/plaid-2x2/d16/lean",
        0xda98d4c079d1996e,
        0xa64687fe1f9a3b33,
    ),
    (
        "doitgen_u4/plaid-2x2/d16/aligned",
        0x9962443e1efffb82,
        0xdb5f7d2befbebfa9,
    ),
    (
        "doitgen_u4/plaid-2x2/d16/rich",
        0xa66bad68b02d40c2,
        0x61ccbd4761899141,
    ),
    (
        "fc/plaid-2x2/d8/lean",
        0xdb40bd70e67238af,
        0xb55a72d6059a1408,
    ),
    (
        "fc/plaid-2x2/d8/aligned",
        0xcd99504b6518884c,
        0x82b89814015d2bd8,
    ),
    (
        "fc/plaid-2x2/d8/rich",
        0xcd63ea2f2e7d15c0,
        0xa5dd77efe163d10,
    ),
    (
        "fc/plaid-2x2/d16/lean",
        0xdb40bd70e67238af,
        0xb55a72d6059a1408,
    ),
    (
        "fc/plaid-2x2/d16/aligned",
        0xcd99504b6518884c,
        0x82b89814015d2bd8,
    ),
    (
        "fc/plaid-2x2/d16/rich",
        0xcd63ea2f2e7d15c0,
        0xa5dd77efe163d10,
    ),
    ("gramsc_u4/plaid-2x2/d8/lean", 0x0, 0x0),
    ("gramsc_u4/plaid-2x2/d8/aligned", 0x0, 0x0),
    ("gramsc_u4/plaid-2x2/d8/rich", 0x0, 0x0),
    ("gramsc_u4/plaid-2x2/d16/lean", 0x11132c8674a822ec, 0x0),
    (
        "gramsc_u4/plaid-2x2/d16/aligned",
        0x7db1a75b7bde590c,
        0x2b8f9fc694a9a0da,
    ),
    (
        "gramsc_u4/plaid-2x2/d16/rich",
        0x5084742a318eeed8,
        0x6ba9b4f78a795a42,
    ),
    ("atax_u4/plaid-2x2/d16/lean", 0x0, 0x69dc24f4769c9fb7),
    (
        "atax_u4/plaid-2x2/d16/rich",
        0x5570b74fef646bee,
        0x2721a5558a4ae81,
    ),
    (
        "atax_u4/plaid-3x3/d16/aligned",
        0xaf1826754ed5b77f,
        0x5926498bb813f693,
    ),
    ("gesumm_u4/plaid-2x4/d16/lean", 0x0, 0x5f2d84a3f2d50ec0),
    (
        "conv3x3/plaid-2x4/d8/lean",
        0x44bd79cb8a1967ff,
        0xdb311b990091f580,
    ),
    (
        "dwconv_u5/plaid-2x4/d16/aligned",
        0x53608314c2178cc7,
        0x234bfa2cf11b96d,
    ),
];

#[test]
fn captured_seeds_and_certificates_are_pinned() {
    let print_mode = std::env::var("PLAID_PIN_PRINT").is_ok();
    let sa = SaMapper::default();
    let plaid = PlaidMapper::default();
    let mut failures = Vec::new();
    for (case, dfg, arch) in suite() {
        let got = (
            seed_digest(sa.map_with_seed(&dfg, &arch, None)),
            seed_digest(plaid.map_with_seed(&dfg, &arch, None)),
        );
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
