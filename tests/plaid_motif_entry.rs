//! Each mapper's `map_with_seed(dfg, &Architecture, hint)` prepares a
//! one-off fabric and delegates to the mapper's prepared-fabric entry:
//! `map_prepared` for SA and PathFinder, and for the Plaid mapper
//! `map_with_motifs`, after identifying the DFG's motifs. A caller that
//! prepares one fabric and maps every workload onto it, as a sweep does,
//! and hands in the same motifs, as the pipeline does, must get the same
//! mapping and the same seed, both signatures and the capacity certificate
//! included, cold and replayed. On a non-Plaid fabric the handed-in motifs
//! must not be used at all.

use plaid::pipeline::ArchChoice;
use plaid_arch::{ArchClass, Architecture, BwClass, CommSpec, DesignPoint, Topology};
use plaid_dfg::Dfg;
use plaid_mapper::{
    MapError, MapSeed, PathFinderMapper, PlaidMapper, PreparedFabric, SaMapper, SeededMapping,
};
use plaid_motif::{identify_motifs, HierarchicalDfg, IdentifyOptions};
use plaid_workloads::table2_workloads;

const FABRICS: [ArchChoice; 4] = [
    ArchChoice::Plaid2x2,
    ArchChoice::Plaid3x3,
    ArchChoice::SpatioTemporal4x4,
    ArchChoice::PlaidMl,
];

/// The paper's fabrics plus a Plaid 3x3 torus, whose wraparound links no
/// preset fabric has, each with its label.
fn fabrics() -> Vec<(String, Architecture)> {
    let torus = DesignPoint {
        class: ArchClass::Plaid,
        rows: 3,
        cols: 3,
        config_entries: 16,
        comm: CommSpec::uniform(Topology::Torus, BwClass::Base),
    };
    FABRICS
        .iter()
        .map(|choice| (choice.label().to_string(), choice.build()))
        .chain([(torus.label(), torus.build())])
        .collect()
}

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
            assert_eq!(a.seed.fabric, b.seed.fabric, "{case}: signatures differ");
            assert_eq!(
                a.seed.fabric_nocap, b.seed.fabric_nocap,
                "{case}: no-capacity signatures differ"
            );
            assert_eq!(a.seed.cap_need, b.seed.cap_need, "{case}: cap_need differs");
            assert_eq!(a.seed.cap_ceil, b.seed.cap_ceil, "{case}: cap_ceil differs");
            assert_eq!(a.seed, b.seed, "{case}: seeds differ");
        }
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{case}"),
        _ => panic!("{case}: one entry mapped and the other did not"),
    }
}

/// Runs `map` cold through both entries, then replays the cold seed through
/// both. Returns whether the cold run mapped.
fn check_cold_and_replayed(
    case: &str,
    map: impl Fn(bool, Option<&MapSeed>) -> Result<SeededMapping, MapError>,
) -> bool {
    let wrapper = map(false, None);
    assert_same(case, &wrapper, &map(true, None));
    let Ok(cold) = wrapper else { return false };
    let hint = MapSeed {
        seed: Some(cold.seed),
        infeasible: None,
    };
    assert_same(
        &format!("{case} replayed"),
        &map(false, Some(&hint)),
        &map(true, Some(&hint)),
    );
    true
}

#[test]
fn handed_in_motifs_map_exactly_like_identified_ones() {
    let mapper = PlaidMapper::default();
    let workloads = rep8();
    let mut mapped = 0;
    for (label, arch) in fabrics() {
        // One prepared fabric serves every workload's ladders.
        let fabric = PreparedFabric::new(arch.clone());
        for (name, dfg) in &workloads {
            let motifs = identify_motifs(dfg, &IdentifyOptions::default());
            let case = format!("{name}/{label}");
            let map = |prepared: bool, hint: Option<&MapSeed>| {
                if prepared {
                    mapper.map_with_motifs(dfg, &motifs, &fabric, hint)
                } else {
                    mapper.map_with_seed(dfg, &arch, hint)
                }
            };
            mapped += usize::from(check_cold_and_replayed(&case, map));
        }
    }
    assert!(mapped >= 10, "only {mapped} of 20 cases mapped");
}

#[test]
fn prepared_fabrics_map_exactly_like_plain_architectures() {
    let workloads = rep8();
    let (sa, pathfinder) = (SaMapper::default(), PathFinderMapper::default());
    let mut mapped = [0; 2];
    for (label, arch) in fabrics() {
        // One prepared fabric serves both mappers and every workload.
        let fabric = PreparedFabric::new(arch.clone());
        for (name, dfg) in &workloads {
            let case = format!("{name}/{label}");
            mapped[0] += usize::from(check_cold_and_replayed(
                &format!("{case}/sa"),
                |prepared, hint| {
                    if prepared {
                        sa.map_prepared(dfg, &fabric, hint)
                    } else {
                        sa.map_with_seed(dfg, &arch, hint)
                    }
                },
            ));
            mapped[1] += usize::from(check_cold_and_replayed(
                &format!("{case}/pathfinder"),
                |prepared, hint| {
                    if prepared {
                        pathfinder.map_prepared(dfg, &fabric, hint)
                    } else {
                        pathfinder.map_with_seed(dfg, &arch, hint)
                    }
                },
            ));
        }
    }
    assert!(
        mapped.iter().all(|&m| m >= 10),
        "SA and PathFinder mapped {mapped:?} of 20 cases"
    );
}

#[test]
fn non_plaid_fabrics_ignore_the_motifs() {
    let mapper = PlaidMapper::default();
    let arch = PreparedFabric::new(ArchChoice::SpatioTemporal4x4.build());
    let plaid = PreparedFabric::new(ArchChoice::Plaid2x2.build());
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
