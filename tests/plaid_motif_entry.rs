//! `PlaidMapper::map_with_seed` identifies a DFG's motifs and delegates to
//! `PlaidMapper::map_with_motifs`. A caller that hands in the same motifs,
//! as the pipeline does, must get the same mapping and the same seed,
//! capacity certificate included, cold and replayed. On a non-Plaid fabric
//! the handed-in motifs must not be used at all.

use plaid::pipeline::ArchChoice;
use plaid_dfg::Dfg;
use plaid_mapper::{MapError, MapSeed, PlaidMapper, SeededMapping};
use plaid_motif::{identify_motifs, HierarchicalDfg, IdentifyOptions};
use plaid_workloads::table2_workloads;

const FABRICS: [ArchChoice; 4] = [
    ArchChoice::Plaid2x2,
    ArchChoice::Plaid3x3,
    ArchChoice::SpatioTemporal4x4,
    ArchChoice::PlaidMl,
];

/// rep8: every eighth registry workload, the default sweep plan's set.
fn rep8() -> Vec<(String, Dfg)> {
    table2_workloads()
        .into_iter()
        .step_by(8)
        .map(|w| (w.name.clone(), w.lower().expect("registry workloads lower")))
        .collect()
}

fn assert_same(
    case: &str,
    wrapper: &Result<SeededMapping, MapError>,
    entry: &Result<SeededMapping, MapError>,
) {
    match (wrapper, entry) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.mapping, b.mapping, "{case}: mappings differ");
            assert_eq!(a.outcome, b.outcome, "{case}: seed outcomes differ");
            assert_eq!(a.seed.cap_need, b.seed.cap_need, "{case}: cap_need differs");
            assert_eq!(a.seed.cap_ceil, b.seed.cap_ceil, "{case}: cap_ceil differs");
            assert_eq!(a.seed, b.seed, "{case}: seeds differ");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{case}"),
        _ => panic!("{case}: one entry mapped and the other did not"),
    }
}

#[test]
fn handed_in_motifs_map_exactly_like_identified_ones() {
    let mapper = PlaidMapper::default();
    let mut mapped = 0;
    for (name, dfg) in rep8() {
        let motifs = identify_motifs(&dfg, &IdentifyOptions::default());
        for choice in FABRICS {
            let arch = choice.build();
            let case = format!("{name}/{}", choice.label());
            let wrapper = mapper.map_with_seed(&dfg, &arch, None);
            let entry = mapper.map_with_motifs(&dfg, &motifs, &arch, None);
            assert_same(&case, &wrapper, &entry);
            let Ok(cold) = wrapper else { continue };
            mapped += 1;
            let hint = MapSeed {
                seed: Some(cold.seed),
                infeasible: None,
            };
            assert_same(
                &format!("{case} replayed"),
                &mapper.map_with_seed(&dfg, &arch, Some(&hint)),
                &mapper.map_with_motifs(&dfg, &motifs, &arch, Some(&hint)),
            );
        }
    }
    assert!(mapped >= 8, "only {mapped} of 16 cases mapped");
}

#[test]
fn non_plaid_fabrics_ignore_the_motifs() {
    let mapper = PlaidMapper::default();
    let arch = ArchChoice::SpatioTemporal4x4.build();
    let mut plaid_uses_them = false;
    for (name, dfg) in rep8() {
        let none = HierarchicalDfg::new(&dfg, Vec::new());
        let motifs = identify_motifs(&dfg, &IdentifyOptions::default());
        assert_same(
            &format!("{name}/no motifs"),
            &mapper.map_with_motifs(&dfg, &motifs, &arch, None),
            &mapper.map_with_motifs(&dfg, &none, &arch, None),
        );
        // The same swap on a Plaid fabric changes a mapping, so the check
        // above would see motifs that were used.
        let plaid = ArchChoice::Plaid2x2.build();
        let with = mapper.map_with_motifs(&dfg, &motifs, &plaid, None);
        let without = mapper.map_with_motifs(&dfg, &none, &plaid, None);
        plaid_uses_them |= match (with, without) {
            (Ok(a), Ok(b)) => a.mapping != b.mapping,
            (a, b) => a.is_ok() != b.is_ok(),
        };
    }
    assert!(
        plaid_uses_them,
        "motifs change no rep8 mapping on Plaid 2x2"
    );
}
