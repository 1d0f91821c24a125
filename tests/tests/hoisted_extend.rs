//! Engine-level checks of the hoisted multi-list `PULL-EXTEND`: counting and
//! collecting runs agree with the sequential reference on every paper query
//! whose plan intersects two or more adjacency lists, across machine counts
//! and batch sizes that cut runs of rows at different places.

use huge_core::{ClusterConfig, HugeCluster, SinkMode};
use huge_graph::{gen, Graph};
use huge_plan::translate::translate;
use huge_query::{naive, Pattern, QueryGraph};

/// Whether the optimiser's plan for `query` on `cluster` has an extend over
/// two or more lists.
fn has_multi_list_extend(cluster: &HugeCluster, query: &QueryGraph) -> bool {
    let dataflow = translate(&cluster.plan(query).unwrap()).unwrap();
    dataflow.segments.iter().any(|s| {
        s.extends
            .iter()
            .any(|e| e.verify_position.is_none() && e.ext_positions.len() >= 2)
    })
}

/// Every collected sample is an injective embedding of `query` in `graph`.
fn assert_valid_samples(graph: &Graph, query: &QueryGraph, samples: &[Vec<u32>]) {
    for m in samples {
        let mut distinct = m.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), m.len(), "non-injective match {m:?}");
        for &(a, b) in query.edges() {
            assert!(
                graph.has_edge(m[a as usize], m[b as usize]),
                "match {m:?} misses edge ({a}, {b})"
            );
        }
    }
}

#[test]
fn multi_list_extends_match_reference_across_machines_and_batch_sizes() {
    let graphs = [
        ("er", gen::erdos_renyi(48, 170, 41)),
        ("ba", gen::barabasi_albert(48, 3, 43)),
    ];
    let mut checked = 0;
    for (name, graph) in &graphs {
        let expected: Vec<u64> = Pattern::PAPER_QUERIES
            .iter()
            .map(|p| naive::enumerate(graph, &p.query_graph()))
            .collect();
        for k in [1, 2, 3] {
            for batch in [1, 7, 1024] {
                let config = ClusterConfig::new(k)
                    .workers(2)
                    .batch_size(batch)
                    .hub_degree_threshold(8);
                let cluster = HugeCluster::build(graph.clone(), config).unwrap();
                for (i, pattern) in Pattern::PAPER_QUERIES.iter().enumerate() {
                    let query = pattern.query_graph();
                    if !has_multi_list_extend(&cluster, &query) {
                        continue;
                    }
                    let expected = expected[i];
                    let case = format!("q{} on {name}, k={k}, batch={batch}", i + 1);
                    let count = cluster.run(&query, SinkMode::Count).unwrap();
                    assert_eq!(count.matches, expected, "count: {case}");
                    assert_eq!(count.leaked_bytes, 0, "count leaks: {case}");
                    let collect = cluster.run(&query, SinkMode::Collect(32)).unwrap();
                    assert_eq!(collect.matches, expected, "collect: {case}");
                    assert_eq!(collect.leaked_bytes, 0, "collect leaks: {case}");
                    assert_valid_samples(graph, &query, &collect.sample_matches);
                    checked += 1;
                }
            }
        }
    }
    // Square, chordal square, 4-clique and more intersect several lists.
    assert!(
        checked >= 2 * 3 * 3 * 3,
        "only {checked} cases had multi-list extends"
    );
}

#[test]
fn cache_counts_the_miss_behind_every_cache_path_fetch() {
    let graph = gen::barabasi_albert(400, 5, 7);
    let mut config = ClusterConfig::new(2).workers(1);
    // Stolen scan chunks pull their lists outside the cache.
    config.inter_machine_stealing = false;
    let cluster = HugeCluster::build(graph, config).unwrap();
    let report = cluster
        .run(&Pattern::Square.query_graph(), SinkMode::Count)
        .unwrap();
    assert!(report.comm.vertices_fetched > 0);
    assert_eq!(report.cache.misses, report.comm.vertices_fetched);
    assert!(report.cache.hits > 0);
    assert!(report.cache.hit_rate() < 1.0, "{:?}", report.cache);
}
