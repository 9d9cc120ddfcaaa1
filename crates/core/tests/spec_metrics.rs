//! Structural metrics of the simulated wiring, pinned per instance.
//!
//! The paper's §3 claims — diameter 3, fewer than 3 router hops on
//! average — are properties of the wiring the simulator runs. Each row
//! below builds one topology instance's `NetworkSpec` and pins its
//! router-to-router diameter and its mean hop count over all ordered
//! pairs of distinct routers (integer total ÷ `n(n−1)`, so the f64 is
//! exact), as answered by the spec's own BFS. The literals were
//! captured from an independent hand-written router graph per topology
//! whose adjacency equalled the spec's on every row.

use dfly_netsim::NetworkSpec;
use dfly_topo::{FlattenedButterfly, FoldedClos, Torus};
use dragonfly::butterfly::ButterflyNetwork;
use dragonfly::clos_sim::ClosNetwork;
use dragonfly::torus_sim::TorusNetwork;
use dragonfly::{ChannelLatencies, Dragonfly, DragonflyParams, GroupTopology};

/// The pinned `(diameter, mean hop count)` of each row of
/// [`instances`], in order.
const PINNED: [(Option<usize>, f64); 32] = [
    // Dragonfly: complete groups at maximum size.
    (Some(3), 1.8),
    (Some(3), 2.263157894736842),
    (Some(3), 2.3285714285714287),
    (Some(3), 2.553330228225431),
    (Some(3), 2.67680608365019),
    // Dragonfly: non-maximal group counts, tapered, FB groups.
    (Some(3), 2.0),
    (Some(2), 1.5454545454545454),
    (Some(3), 1.8421052631578947),
    (Some(3), 2.0140845070422535),
    (Some(3), 2.210526315789474),
    (Some(3), 2.352112676056338),
    (Some(4), 2.5),
    (Some(5), 3.1037037037037036),
    (Some(5), 3.3074074074074074),
    // Flattened butterflies.
    (Some(1), 1.0),
    (Some(2), 1.5),
    (Some(2), 1.6),
    (Some(3), 2.2857142857142856),
    (Some(2), 1.5714285714285714),
    // Folded Clos at 2-4 levels.
    (Some(2), 1.3333333333333333),
    (Some(2), 1.4),
    (Some(2), 1.4666666666666666),
    (Some(4), 2.0),
    (Some(4), 2.300395256916996),
    (Some(4), 2.5743589743589745),
    (Some(6), 2.994708994708995),
    // Tori, k = 2 and 3 included.
    (Some(3), 1.8),
    (Some(2), 1.5),
    (Some(4), 2.1333333333333333),
    (Some(4), 2.5),
    (Some(3), 1.7142857142857142),
    (Some(3), 2.076923076923077),
];

fn dragonfly(label: &str, df: Dragonfly) -> (String, NetworkSpec) {
    (format!("dragonfly {label}"), df.build_spec())
}

fn fb_group(params: DragonflyParams, dims: &[usize]) -> Dragonfly {
    Dragonfly::with_group_topology(
        params,
        GroupTopology::FlattenedButterfly(dims.to_vec()),
        ChannelLatencies::default(),
    )
    .unwrap()
}

/// Every instance: label and simulated wiring.
fn instances() -> Vec<(String, NetworkSpec)> {
    let max = |p, a, h| DragonflyParams::new(p, a, h).unwrap();
    let sized = |p, a, h, g| DragonflyParams::with_groups(p, a, h, g).unwrap();
    let mut rows = vec![
        dragonfly("(1,2,1)", Dragonfly::new(max(1, 2, 1))),
        dragonfly("(1,4,1)", Dragonfly::new(max(1, 4, 1))),
        dragonfly("(2,4,2)", Dragonfly::new(max(2, 4, 2))),
        dragonfly("(3,6,3)", Dragonfly::new(max(3, 6, 3))),
        dragonfly("(4,8,4)", Dragonfly::new(max(4, 8, 4))),
        dragonfly("(1,3,1) g=3", Dragonfly::new(sized(1, 3, 1, 3))),
        dragonfly("(2,4,2) g=3", Dragonfly::new(sized(2, 4, 2, 3))),
        dragonfly("(2,4,2) g=5", Dragonfly::new(sized(2, 4, 2, 5))),
        dragonfly("(4,8,4) g=9", Dragonfly::new(sized(4, 8, 4, 9))),
        dragonfly(
            "(2,4,2) g=5 taper 0.5",
            Dragonfly::with_taper(sized(2, 4, 2, 5), 0.5).unwrap(),
        ),
        dragonfly(
            "(4,8,4) g=9 taper 0.5",
            Dragonfly::with_taper(sized(4, 8, 4, 9), 0.5).unwrap(),
        ),
        dragonfly("(2,4,2) 2x2 group", fb_group(max(2, 4, 2), &[2, 2])),
        dragonfly("(2,8,2) 4x2 group", fb_group(max(2, 8, 2), &[4, 2])),
        dragonfly("(2,8,2) 2x2x2 group", fb_group(max(2, 8, 2), &[2, 2, 2])),
    ];
    for fb in [
        FlattenedButterfly::new(1, 8, 4),
        FlattenedButterfly::new(2, 3, 1),
        FlattenedButterfly::new(2, 4, 2),
        FlattenedButterfly::new(3, 4, 2),
        FlattenedButterfly::with_dims(&[5, 3], 2),
    ] {
        let label = format!("FB {:?} c={}", fb.dims(), fb.concentration());
        rows.push((label, ButterflyNetwork::new(fb).build_spec()));
    }
    for (levels, radix) in [(2, 4), (2, 6), (2, 8), (3, 4), (3, 6), (3, 8), (4, 4)] {
        let clos = FoldedClos::new(levels, radix);
        let label = format!("Clos levels={levels} radix={radix}");
        rows.push((label, ClosNetwork::new(clos).build_spec()));
    }
    for (n, k, c) in [
        (1, 6, 1),
        (2, 3, 1),
        (2, 4, 1),
        (2, 5, 1),
        (3, 2, 1),
        (3, 3, 2),
    ] {
        let torus = Torus::new(n, k, c);
        let label = format!("torus n={n} k={k} c={c}");
        rows.push((label, TorusNetwork::new(torus).build_spec()));
    }
    rows
}

#[test]
fn diameters_and_mean_hops_are_pinned() {
    let rows = instances();
    assert_eq!(rows.len(), PINNED.len());
    let mut drift = String::new();
    for ((label, spec), (diameter, mean)) in rows.iter().zip(PINNED) {
        let got = (spec.diameter(), spec.average_hop_count().unwrap());
        if got != (diameter, mean) {
            drift.push_str(&format!("{label}: got {got:?}\n"));
        }
    }
    assert!(drift.is_empty(), "{drift}");
}
