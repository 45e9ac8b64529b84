//! # fw-analysis
//!
//! Text analytics and statistics for the measurement pipeline:
//!
//! * [`content`] — response content typing (JSON / HTML / Plaintext /
//!   Others), the first grouping step of §3.4.
//! * [`text`] — tokenizer, TF-IDF vectorizer and cosine distance over
//!   sparse vectors.
//! * [`cluster`] — agglomerative clustering with average linkage
//!   (nearest-neighbour-chain algorithm, exact) plus a greedy
//!   leader-clustering fallback for very large corpora; the paper cuts the
//!   dendrogram at 90% similarity (cosine distance < 0.1).
//! * [`stats`] — histograms (log10 bins for Figure 5), CDFs, top-k
//!   concentration shares and entropy (Table 2 and its ablation).
//! * [`par`] — the workspace's one fork-join worker pool: [`fork`] and
//!   the round-robin, index-merged [`par_map`] on top of it. Every
//!   fan-out outside SimNet's listeners goes through it, the
//!   clock-registered probe, C2 and load workers included.

pub mod cluster;
pub mod content;
pub mod par;
pub mod stats;
pub mod text;

pub use cluster::{cluster_corpus_par, ClusterParams, Clustering};
pub use content::ContentType;
pub use par::{fork, par_map};
pub use stats::{cdf_points, log10_histogram, top_k_share};
pub use text::{cosine_distance, SparseVec, TfIdf};
