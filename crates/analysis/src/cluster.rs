//! Agglomerative clustering with average linkage (§3.4).
//!
//! The paper clusters TF-IDF vectors with agglomerative (bottom-up)
//! clustering, average linkage, cutting at 90% similarity (cosine
//! distance < 0.1). This module implements:
//!
//! 1. **Exact dedup** — identical documents collapse first (most of a
//!    campaign's pages are byte-identical), shrinking the quadratic stage;
//! 2. **NN-chain agglomerative clustering** — the O(n²) nearest-neighbour
//!    chain algorithm, exact for reducible linkages like average linkage,
//!    with Lance-Williams distance updates;
//! 3. **Leader clustering fallback** — greedy O(n·k) assignment for
//!    corpora beyond `exact_limit`, trading exactness for scale (an
//!    explicit, logged cap — no silent truncation).
//!
//! Average linkage produces no inversions, so cutting the dendrogram at a
//! threshold equals union-finding all merges with distance ≤ threshold.

use crate::text::{cosine_distance, SparseVec};
use std::collections::HashMap;

/// Clustering parameters.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Cut threshold: cosine distance below which documents merge
    /// (paper: 0.1 = 90% similarity).
    pub distance_threshold: f32,
    /// Maximum number of unique documents for the exact O(n²) algorithm;
    /// larger corpora use leader clustering.
    pub exact_limit: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams {
            distance_threshold: 0.1,
            exact_limit: 4_000,
        }
    }
}

/// Result: cluster id per input document, plus cluster count.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// `assignment[i]` is the cluster id of input document `i`.
    pub assignment: Vec<u32>,
    pub cluster_count: usize,
    /// Whether the exact algorithm ran (false = leader fallback).
    pub exact: bool,
}

impl Clustering {
    /// Members per cluster id.
    pub fn members(&self) -> HashMap<u32, Vec<usize>> {
        let mut map: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, c) in self.assignment.iter().enumerate() {
            map.entry(*c).or_default().push(i);
        }
        map
    }

    /// A representative (first member) per cluster, for manual review —
    /// the paper's experts reviewed cluster exemplars.
    pub fn exemplars(&self) -> Vec<(u32, usize)> {
        let mut seen: HashMap<u32, usize> = HashMap::new();
        for (i, c) in self.assignment.iter().enumerate() {
            seen.entry(*c).or_insert(i);
        }
        let mut out: Vec<(u32, usize)> = seen.into_iter().collect();
        out.sort_unstable();
        out
    }
}

/// Cluster a corpus of raw documents (dedup → vectorize → cluster),
/// vectorizing serially.
pub fn cluster_corpus<S: AsRef<str> + Sync>(docs: &[S], params: &ClusterParams) -> Clustering {
    cluster_corpus_par(docs, params, 1)
}

/// [`cluster_corpus`] with TF-IDF vectorization fanned out over
/// `workers` threads (`crate::par::par_map`) — output is
/// identical at any worker count; dedup and the clustering proper stay
/// serial.
pub fn cluster_corpus_par<S: AsRef<str> + Sync>(
    docs: &[S],
    params: &ClusterParams,
    workers: usize,
) -> Clustering {
    if docs.is_empty() {
        return Clustering {
            assignment: Vec::new(),
            cluster_count: 0,
            exact: true,
        };
    }
    // 1. Exact dedup.
    let mut unique: Vec<&str> = Vec::new();
    let mut doc_to_unique: Vec<usize> = Vec::with_capacity(docs.len());
    let mut index: HashMap<&str, usize> = HashMap::new();
    for d in docs {
        let s = d.as_ref();
        let u = *index.entry(s).or_insert_with(|| {
            unique.push(s);
            unique.len() - 1
        });
        doc_to_unique.push(u);
    }

    // 2. Vectorize unique docs.
    let (_, vecs) = crate::text::TfIdf::fit_transform_par(&unique, workers);

    // 3. Cluster unique docs.
    let (unique_assignment, exact) = if unique.len() <= params.exact_limit {
        (nn_chain_average(&vecs, params.distance_threshold), true)
    } else {
        (leader_cluster(&vecs, params.distance_threshold), false)
    };

    // 4. Expand to the full corpus.
    let assignment: Vec<u32> = doc_to_unique
        .iter()
        .map(|u| unique_assignment[*u])
        .collect();
    let cluster_count = {
        let mut ids: Vec<u32> = assignment.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    };
    Clustering {
        assignment,
        cluster_count,
        exact,
    }
}

/// Exact average-linkage clustering via the nearest-neighbour chain
/// algorithm; returns a cluster id per vector after cutting at
/// `threshold`.
fn nn_chain_average(vecs: &[SparseVec], threshold: f32) -> Vec<u32> {
    let n = vecs.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![0];
    }

    // Full distance matrix (f32, n²). `exact_limit` bounds memory.
    let mut dist = vec![0.0f32; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = cosine_distance(&vecs[i], &vecs[j]);
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }

    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<u32> = vec![1; n];
    let mut merges: Vec<(usize, usize, f32)> = Vec::with_capacity(n - 1);
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;

    while remaining > 1 {
        if chain.is_empty() {
            let start = active
                .iter()
                .position(|a| *a)
                .expect("remaining > 1 implies an active cluster");
            chain.push(start);
        }
        loop {
            let top = *chain.last().expect("chain non-empty");
            // Nearest active neighbour of `top` (excluding itself).
            let mut nn = usize::MAX;
            let mut best = f32::INFINITY;
            for j in 0..n {
                if j != top && active[j] {
                    let d = dist[top * n + j];
                    // Tie-break deterministically by index.
                    if d < best || (d == best && j < nn) {
                        best = d;
                        nn = j;
                    }
                }
            }
            debug_assert_ne!(nn, usize::MAX);
            if chain.len() >= 2 && nn == chain[chain.len() - 2] {
                // Reciprocal nearest neighbours: merge.
                let a = chain.pop().expect("top");
                let b = chain.pop().expect("second");
                merges.push((a, b, best));
                // Lance-Williams average-linkage update into slot `a`.
                let (sa, sb) = (size[a] as f32, size[b] as f32);
                for k in 0..n {
                    if active[k] && k != a && k != b {
                        let d = (sa * dist[a * n + k] + sb * dist[b * n + k]) / (sa + sb);
                        dist[a * n + k] = d;
                        dist[k * n + a] = d;
                    }
                }
                size[a] += size[b];
                active[b] = false;
                remaining -= 1;
                break;
            }
            chain.push(nn);
        }
    }

    // Cut: union-find over merges with distance ≤ threshold.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (a, b, d) in merges {
        if d <= threshold {
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra != rb {
                parent[ra] = rb;
            }
        }
    }
    normalize_roots(&mut parent)
}

/// Greedy leader clustering: assign each vector to the first leader
/// within the threshold, else it becomes a new leader.
fn leader_cluster(vecs: &[SparseVec], threshold: f32) -> Vec<u32> {
    let mut leaders: Vec<usize> = Vec::new();
    let mut assignment: Vec<u32> = Vec::with_capacity(vecs.len());
    for (i, v) in vecs.iter().enumerate() {
        let mut assigned = None;
        for (c, leader) in leaders.iter().enumerate() {
            if cosine_distance(v, &vecs[*leader]) <= threshold {
                assigned = Some(c as u32);
                break;
            }
        }
        match assigned {
            Some(c) => assignment.push(c),
            None => {
                leaders.push(i);
                assignment.push((leaders.len() - 1) as u32);
            }
        }
    }
    assignment
}

/// Convert a union-find parent table to dense cluster ids `0..k`.
fn normalize_roots(parent: &mut [usize]) -> Vec<u32> {
    let n = parent.len();
    let mut ids: HashMap<usize, u32> = HashMap::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let mut root = i;
        while parent[root] != root {
            root = parent[root];
        }
        let next = ids.len() as u32;
        out.push(*ids.entry(root).or_insert(next));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(t: f32) -> ClusterParams {
        ClusterParams {
            distance_threshold: t,
            ..ClusterParams::default()
        }
    }

    #[test]
    fn empty_corpus() {
        let c = cluster_corpus::<&str>(&[], &ClusterParams::default());
        assert_eq!(c.cluster_count, 0);
    }

    #[test]
    fn identical_docs_form_one_cluster() {
        let docs = ["same page body", "same page body", "same page body"];
        let c = cluster_corpus(&docs, &ClusterParams::default());
        assert_eq!(c.cluster_count, 1);
        assert!(c.assignment.iter().all(|&a| a == c.assignment[0]));
    }

    #[test]
    fn near_duplicates_merge_distinct_topics_stay_apart() {
        let docs = [
            "welcome bonus slot betting casino jackpot deposit now spin mega",
            "welcome bonus slot betting casino jackpot deposit today spin mega",
            "openai api key for sale contact wechat cheap bulk discount resale",
            "openai api key for sale contact telegram cheap bulk discount resale",
            "completely unrelated log output from a boring microservice here",
        ];
        let c = cluster_corpus(&docs, &params(0.35));
        assert!(c.exact);
        assert_eq!(c.assignment[0], c.assignment[1], "gambling pair merges");
        assert_eq!(c.assignment[2], c.assignment[3], "openai pair merges");
        assert_ne!(c.assignment[0], c.assignment[2]);
        assert_ne!(c.assignment[4], c.assignment[0]);
        assert_ne!(c.assignment[4], c.assignment[2]);
        assert_eq!(c.cluster_count, 3);
    }

    #[test]
    fn threshold_zero_keeps_everything_apart() {
        let docs = ["aa bb cc", "aa bb dd", "aa bb ee"];
        let c = cluster_corpus(&docs, &params(0.0));
        assert_eq!(c.cluster_count, 3);
    }

    #[test]
    fn threshold_one_merges_everything_sharing_terms() {
        let docs = ["shared word one", "shared word two", "shared word three"];
        let c = cluster_corpus(&docs, &params(1.0));
        assert_eq!(c.cluster_count, 1);
    }

    #[test]
    fn leader_fallback_used_above_limit() {
        let docs: Vec<String> = (0..30)
            .map(|i| format!("doc number {i} unique terms {i}"))
            .collect();
        let c = cluster_corpus(
            &docs,
            &ClusterParams {
                distance_threshold: 0.1,
                exact_limit: 10,
            },
        );
        assert!(!c.exact);
        assert_eq!(c.assignment.len(), 30);
    }

    #[test]
    fn exemplars_one_per_cluster() {
        let docs = ["aaa bbb", "aaa bbb", "ccc ddd"];
        let c = cluster_corpus(&docs, &ClusterParams::default());
        let ex = c.exemplars();
        assert_eq!(ex.len(), c.cluster_count);
    }

    #[test]
    fn exact_and_leader_agree_on_well_separated_data() {
        // Three tight groups with huge inter-group distance: any sane
        // algorithm finds exactly 3 clusters.
        let mut docs = Vec::new();
        for g in 0..3 {
            for v in 0..5 {
                docs.push(format!(
                    "group{g} group{g} topic{g} filler{v} group{g} marker{g} anchor{g} body{g}"
                ));
            }
        }
        let exact = cluster_corpus(&docs, &params(0.45));
        let leader = cluster_corpus(
            &docs,
            &ClusterParams {
                distance_threshold: 0.45,
                exact_limit: 1,
            },
        );
        assert_eq!(exact.cluster_count, 3);
        assert_eq!(leader.cluster_count, 3);
    }

    #[test]
    fn campaign_pages_cluster_like_the_paper() {
        // Simulated gambling campaign: same template, different brand.
        let template = "online slot betting casino welcome bonus 100 deposit \
                        spin mega jackpot slot gacor baccarat roulette sicbo fish hunter \
                        campaign 0042 all rights reserved google site verification ";
        let pages: Vec<String> = (0..8)
            .map(|i| format!("brand{i} {template}{template}{template}"))
            .collect();
        let mut docs = pages;
        docs.push("totally different corporate landing page about cloud storage".into());
        let c = cluster_corpus(&docs, &ClusterParams::default());
        // All campaign pages in one cluster, outlier alone.
        assert_eq!(c.cluster_count, 2);
        assert_eq!(c.assignment[0], c.assignment[7]);
        assert_ne!(c.assignment[0], c.assignment[8]);
    }
}
