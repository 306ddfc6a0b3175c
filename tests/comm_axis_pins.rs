//! Pins everything the communication axis derives from a spec, for every
//! spec the explorer can produce: the three presets and
//! `CommSpec::uniform(t, b)` for every topology the sweeps use and every
//! bandwidth class.
//!
//! Design-point labels and the compact JSON feed cache keys and frontier
//! files; the select-bit budget feeds the cost model; `order_rank` fixes the
//! sweep's grouping order and `distance` its nearest-seed choices; the
//! fabric signature covers every switch capacity and link of the built
//! fabric. A refactor of the axis must leave all of them exactly as they
//! are, so this table is compared line for line.
//!
//! Run with `PLAID_PIN_PRINT=1` to print the current table instead of
//! asserting (the capture mode used to generate it).

use plaid_arch::{
    plaid, rebuild_with_comm, spatial, spatio_temporal, ArchClass, ArchParams, Architecture,
    BwClass, CommSpec, DesignPoint, Topology,
};
use plaid_mapper::fabric_signature;

const TOPOLOGIES: [Topology; 4] = [
    Topology::Mesh,
    Topology::Torus,
    Topology::Express { stride: 2 },
    Topology::Express { stride: 3 },
];

/// The presets, then every uniform spec in topology-major order.
fn specs() -> Vec<CommSpec> {
    let mut specs = CommSpec::presets();
    for t in TOPOLOGIES {
        specs.extend(BwClass::ALL.iter().map(|&b| CommSpec::uniform(t, b)));
    }
    specs
}

/// The fabric signature of a 16-deep point, or `-` for a point the spec
/// makes invalid (an express stride that adds no link the torus lacks).
fn signature(class: ArchClass, rows: u32, cols: u32, comm: CommSpec) -> String {
    let point = DesignPoint {
        class,
        rows,
        cols,
        config_entries: 16,
        comm,
    };
    if point.is_valid() {
        format!("{:016x}", fabric_signature(&point.build()))
    } else {
        "-".to_string()
    }
}

/// One line per spec: label, compact JSON, select bits of the published
/// Plaid and spatio-temporal budgets, and the fabric signatures of
/// `plaid-3x3/d16` and `spatio-temporal-4x4/d16`. Then the specs' labels in
/// `order_rank` order, and the `distance` matrix in spec order.
fn table() -> String {
    let plaid_bits = ArchParams::plaid(2, 2).config.communication_bits;
    let st_bits = ArchParams::baseline(4, 4).config.communication_bits;
    let specs = specs();
    let mut out = String::new();
    for &spec in &specs {
        out.push_str(&format!(
            "{} {} {} {} {} {}\n",
            spec.label(),
            serde_json::to_string(&spec).unwrap(),
            spec.select_bits(plaid_bits),
            spec.select_bits(st_bits),
            signature(ArchClass::Plaid, 3, 3, spec),
            signature(ArchClass::SpatioTemporal, 4, 4, spec),
        ));
    }
    let mut ordered = specs.clone();
    ordered.sort_by_key(|s| s.order_rank());
    let labels: Vec<String> = ordered.iter().map(CommSpec::label).collect();
    out.push_str(&format!("order: {}\n", labels.join(" ")));
    for &a in &specs {
        let row: Vec<String> = specs.iter().map(|&b| a.distance(b).to_string()).collect();
        out.push_str(&format!("distance {}: {}\n", a.label(), row.join(" ")));
    }
    out
}

const PINNED: &str = r#"lean "Lean" 30 14 eb25a279b7c9f83e c9aa60667fd415a8
aligned "Aligned" 60 29 ac3106401a7b9536 e6b002fbb1f961a8
rich "Rich" 90 44 e94c4be66ba93a7e b6c2e80c62f33da8
lean "Lean" 30 14 eb25a279b7c9f83e c9aa60667fd415a8
aligned "Aligned" 60 29 ac3106401a7b9536 e6b002fbb1f961a8
rich "Rich" 90 44 e94c4be66ba93a7e b6c2e80c62f33da8
mesh-dd {"global_bw":"double","local_bw":"double","select":"proportional","topology":"mesh"} 120 58 4d42e9e74ce0ede7 88c910e3c13d7da8
torus-hh {"global_bw":"half","local_bw":"half","select":"proportional","topology":"torus"} 30 14 3756a16744bf5c3e 946c8c70c8390da8
torus {"global_bw":"base","local_bw":"base","select":"proportional","topology":"torus"} 60 29 8b67bd4ef1c09536 2116a81e842659a8
torus-rr {"global_bw":"boost","local_bw":"boost","select":"proportional","topology":"torus"} 90 44 1f71869324cf7e7e b6c60f8e324835a8
torus-dd {"global_bw":"double","local_bw":"double","select":"proportional","topology":"torus"} 120 58 e0fb61babbb236e7 0c8e1b752e1275a8
xp2-hh {"global_bw":"half","local_bw":"half","select":"proportional","topology":"xp2"} 34 18 - 1cd218d4cbb8cba8
xp2 {"global_bw":"base","local_bw":"base","select":"proportional","topology":"xp2"} 64 33 - c3c689d1c16e17a8
xp2-rr {"global_bw":"boost","local_bw":"boost","select":"proportional","topology":"xp2"} 94 48 - d6002b5b5cb7f3a8
xp2-dd {"global_bw":"double","local_bw":"double","select":"proportional","topology":"xp2"} 124 62 - 75dd2342f60233a8
xp3-hh {"global_bw":"half","local_bw":"half","select":"proportional","topology":"xp3"} 34 18 - -
xp3 {"global_bw":"base","local_bw":"base","select":"proportional","topology":"xp3"} 64 33 - -
xp3-rr {"global_bw":"boost","local_bw":"boost","select":"proportional","topology":"xp3"} 94 48 - -
xp3-dd {"global_bw":"double","local_bw":"double","select":"proportional","topology":"xp3"} 124 62 - -
order: aligned aligned lean lean rich rich mesh-dd torus-hh torus torus-rr torus-dd xp2-hh xp2 xp2-rr xp2-dd xp3-hh xp3 xp3-rr xp3-dd
distance lean: 0 2 4 0 2 4 6 24 26 28 30 24 26 28 30 24 26 28 30
distance aligned: 2 0 2 2 0 2 4 26 24 26 28 26 24 26 28 26 24 26 28
distance rich: 4 2 0 4 2 0 2 28 26 24 26 28 26 24 26 28 26 24 26
distance lean: 0 2 4 0 2 4 6 24 26 28 30 24 26 28 30 24 26 28 30
distance aligned: 2 0 2 2 0 2 4 26 24 26 28 26 24 26 28 26 24 26 28
distance rich: 4 2 0 4 2 0 2 28 26 24 26 28 26 24 26 28 26 24 26
distance mesh-dd: 6 4 2 6 4 2 0 30 28 26 24 30 28 26 24 30 28 26 24
distance torus-hh: 24 26 28 24 26 28 30 0 2 4 6 24 26 28 30 24 26 28 30
distance torus: 26 24 26 26 24 26 28 2 0 2 4 26 24 26 28 26 24 26 28
distance torus-rr: 28 26 24 28 26 24 26 4 2 0 2 28 26 24 26 28 26 24 26
distance torus-dd: 30 28 26 30 28 26 24 6 4 2 0 30 28 26 24 30 28 26 24
distance xp2-hh: 24 26 28 24 26 28 30 24 26 28 30 0 2 4 6 24 26 28 30
distance xp2: 26 24 26 26 24 26 28 26 24 26 28 2 0 2 4 26 24 26 28
distance xp2-rr: 28 26 24 28 26 24 26 28 26 24 26 4 2 0 2 28 26 24 26
distance xp2-dd: 30 28 26 30 28 26 24 30 28 26 24 6 4 2 0 30 28 26 24
distance xp3-hh: 24 26 28 24 26 28 30 24 26 28 30 24 26 28 30 0 2 4 6
distance xp3: 26 24 26 26 24 26 28 26 24 26 28 26 24 26 28 2 0 2 4
distance xp3-rr: 28 26 24 28 26 24 26 28 26 24 26 28 26 24 26 4 2 0 2
distance xp3-dd: 30 28 26 30 28 26 24 30 28 26 24 30 28 26 24 6 4 2 0
"#;

#[test]
fn comm_axis_derivations_are_pinned() {
    let table = table();
    if std::env::var_os("PLAID_PIN_PRINT").is_some() {
        print!("{table}");
        return;
    }
    for (i, (got, want)) in table.lines().zip(PINNED.lines()).enumerate() {
        assert_eq!(got, want, "line {} of the comm-axis table moved", i + 1);
    }
    assert_eq!(table.lines().count(), PINNED.lines().count());
}

/// `point`'s fabric, built whether or not the point is valid.
fn fabric(point: &DesignPoint) -> Architecture {
    let base = match point.class {
        ArchClass::SpatioTemporal => spatio_temporal::build(point.rows, point.cols),
        ArchClass::Spatial => spatial::build(point.rows, point.cols),
        ArchClass::Plaid => plaid::build(point.rows, point.cols),
    };
    rebuild_with_comm(&base, point.label(), point.params(), &point.comm)
}

#[test]
fn express_points_are_valid_exactly_when_they_add_a_link() {
    for class in [
        ArchClass::SpatioTemporal,
        ArchClass::Spatial,
        ArchClass::Plaid,
    ] {
        for rows in 2..=6 {
            for cols in 2..=6 {
                let point = |topology| DesignPoint {
                    class,
                    rows,
                    cols,
                    config_entries: 16,
                    comm: CommSpec::uniform(topology, BwClass::Base),
                };
                let torus = point(Topology::Torus).build();
                let mesh = point(Topology::Mesh).build();
                for stride in 2..=5 {
                    let express = point(Topology::Express { stride });
                    let label = express.label();
                    if express.is_valid() {
                        let built = express.build();
                        let signature = fabric_signature(&built);
                        assert_ne!(signature, fabric_signature(&torus), "{label}");
                        assert_ne!(signature, fabric_signature(&mesh), "{label}");
                        assert!(
                            built.links().iter().any(|l| !torus.links().contains(l)),
                            "{label} adds no link the torus lacks"
                        );
                    } else {
                        let built = fabric(&express);
                        for link in built.links() {
                            assert!(torus.links().contains(link), "{label}: {link:?}");
                        }
                    }
                }
            }
        }
    }
}
