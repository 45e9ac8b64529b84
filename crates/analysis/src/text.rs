//! Tokenization, TF-IDF vectorization and cosine distance (§3.4).
//!
//! "Each response was converted into a TF-IDF vector, and pairwise
//! similarity was measured using cosine distance." Vectors are sparse,
//! L2-normalized, so cosine similarity is a sparse dot product and cosine
//! distance is `1 − dot`.

use std::collections::HashMap;

/// A sparse, L2-normalized vector: `(term index, weight)` sorted by index.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    entries: Vec<(u32, f32)>,
}

impl SparseVec {
    /// Build from unsorted (index, weight) pairs; normalizes to unit L2.
    fn from_pairs(mut pairs: Vec<(u32, f32)>) -> SparseVec {
        pairs.sort_unstable_by_key(|(i, _)| *i);
        let norm: f32 = pairs.iter().map(|(_, w)| w * w).sum::<f32>().sqrt();
        if norm > 0.0 {
            for (_, w) in &mut pairs {
                *w /= norm;
            }
        }
        SparseVec { entries: pairs }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Sparse dot product.
    pub fn dot(&self, other: &SparseVec) -> f32 {
        let (mut i, mut j) = (0, 0);
        let mut sum = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            let (ia, wa) = self.entries[i];
            let (ib, wb) = other.entries[j];
            match ia.cmp(&ib) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    sum += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        sum
    }
}

/// Cosine distance between two normalized sparse vectors, clamped to
/// `[0, 1]`.
pub fn cosine_distance(a: &SparseVec, b: &SparseVec) -> f32 {
    (1.0 - a.dot(b)).clamp(0.0, 1.0)
}

/// Tokenize: lowercase alphanumeric runs of length ≥ 2 (ASCII), plus CJK
/// characters as single tokens (the corpus contains Chinese promo text).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() {
            cur.push(c.to_ascii_lowercase());
        } else {
            if cur.len() >= 2 {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
            // CJK ideographs carry meaning individually.
            if ('\u{4e00}'..='\u{9fff}').contains(&c) {
                out.push(c.to_string());
            }
        }
    }
    if cur.len() >= 2 {
        out.push(cur);
    }
    out
}

/// A fitted TF-IDF model.
#[derive(Debug, Clone)]
pub struct TfIdf {
    vocab: HashMap<String, u32>,
    idf: Vec<f32>,
    doc_count: usize,
}

impl TfIdf {
    /// Fit on a corpus. Terms appearing in every document still get a
    /// small positive idf (smoothed).
    pub fn fit<S: AsRef<str>>(corpus: &[S]) -> TfIdf {
        let mut vocab: HashMap<String, u32> = HashMap::new();
        let mut df: Vec<u32> = Vec::new();
        for doc in corpus {
            let mut seen: Vec<u32> = tokenize(doc.as_ref())
                .into_iter()
                .map(|tok| {
                    let next = vocab.len() as u32;
                    let idx = *vocab.entry(tok).or_insert(next);
                    if idx as usize >= df.len() {
                        df.push(0);
                    }
                    idx
                })
                .collect();
            seen.sort_unstable();
            seen.dedup();
            for idx in seen {
                df[idx as usize] += 1;
            }
        }
        let n = corpus.len().max(1) as f32;
        let idf = df
            .iter()
            .map(|d| ((1.0 + n) / (1.0 + *d as f32)).ln() + 1.0)
            .collect();
        TfIdf {
            vocab,
            idf,
            doc_count: corpus.len(),
        }
    }

    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Transform one document into a normalized TF-IDF vector. Terms
    /// outside the fitted vocabulary are ignored.
    pub fn transform(&self, doc: &str) -> SparseVec {
        let mut tf: HashMap<u32, f32> = HashMap::new();
        for tok in tokenize(doc) {
            if let Some(&idx) = self.vocab.get(&tok) {
                *tf.entry(idx).or_insert(0.0) += 1.0;
            }
        }
        let pairs = tf
            .into_iter()
            .map(|(idx, count)| (idx, count * self.idf[idx as usize]))
            .collect();
        SparseVec::from_pairs(pairs)
    }

    /// Fit and transform the whole corpus.
    pub fn fit_transform<S: AsRef<str>>(corpus: &[S]) -> (TfIdf, Vec<SparseVec>) {
        let model = TfIdf::fit(corpus);
        let vecs = corpus.iter().map(|d| model.transform(d.as_ref())).collect();
        (model, vecs)
    }

    /// Fit and transform with the per-document vectorization fanned out
    /// over `workers` threads.
    ///
    /// Fitting stays serial — vocabulary indices are assigned in
    /// first-seen corpus order, which is inherently sequential. The
    /// transform stage is a pure per-document function of the fitted
    /// model (and `SparseVec::from_pairs` sorts by term index before
    /// normalizing, so each vector's float operations run in a fixed
    /// order) — `par_map` therefore returns bit-identical vectors to the
    /// serial loop at any worker count.
    pub fn fit_transform_par<S: AsRef<str> + Sync>(
        corpus: &[S],
        workers: usize,
    ) -> (TfIdf, Vec<SparseVec>) {
        let model = TfIdf::fit(corpus);
        let vecs = crate::par::par_map(corpus, workers, "", None, |_, d| {
            model.transform(d.as_ref())
        });
        (model, vecs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_basics() {
        assert_eq!(
            tokenize("Hello, WORLD-2024! a b8"),
            vec!["hello", "world", "2024", "b8"]
        );
        assert!(tokenize("! @ # $").is_empty());
    }

    #[test]
    fn tokenizer_cjk() {
        let toks = tokenize("购买API key");
        assert!(toks.contains(&"购".to_string()));
        assert!(toks.contains(&"买".to_string()));
        assert!(toks.contains(&"api".to_string()));
        assert!(toks.contains(&"key".to_string()));
    }

    #[test]
    fn identical_docs_have_zero_distance() {
        let corpus = ["the gambling slot site", "the gambling slot site"];
        let (_, vecs) = TfIdf::fit_transform(&corpus);
        assert!(cosine_distance(&vecs[0], &vecs[1]) < 1e-6);
    }

    #[test]
    fn disjoint_docs_have_distance_one() {
        let corpus = ["alpha beta gamma", "delta epsilon zeta"];
        let (_, vecs) = TfIdf::fit_transform(&corpus);
        assert!((cosine_distance(&vecs[0], &vecs[1]) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn similar_docs_are_closer_than_dissimilar() {
        let corpus = [
            "online slot betting casino jackpot welcome bonus",
            "online slot betting casino jackpot deposit bonus",
            "openai api key resale contact wechat",
        ];
        let (_, vecs) = TfIdf::fit_transform(&corpus);
        let near = cosine_distance(&vecs[0], &vecs[1]);
        let far = cosine_distance(&vecs[0], &vecs[2]);
        assert!(near < 0.3, "near = {near}");
        assert!(far > 0.8, "far = {far}");
        assert!(near < far);
    }

    #[test]
    fn rare_terms_weigh_more_than_common() {
        // "common" appears in all docs; "rare" in one.
        let corpus = ["common rare", "common x1", "common x2", "common x3"];
        let model = TfIdf::fit(&corpus);
        let v = model.transform("common rare");
        // The vector has two entries; the rare term must dominate.
        assert_eq!(v.nnz(), 2);
        let rare_idx = model.vocab["rare"];
        let common_idx = model.vocab["common"];
        let weight = |idx: u32| {
            v.entries
                .iter()
                .find(|(i, _)| *i == idx)
                .map(|(_, w)| *w)
                .unwrap()
        };
        assert!(weight(rare_idx) > weight(common_idx));
    }

    #[test]
    fn oov_terms_ignored() {
        let model = TfIdf::fit(&["known words only"]);
        let v = model.transform("unseen vocabulary entirely");
        assert!(v.is_empty());
    }

    #[test]
    fn vectors_are_unit_norm() {
        let (_, vecs) = TfIdf::fit_transform(&["a few words here", "other words there"]);
        for v in &vecs {
            let norm: f32 = v.entries.iter().map(|(_, w)| w * w).sum();
            assert!((norm - 1.0).abs() < 1e-5, "norm² = {norm}");
        }
    }

    #[test]
    fn empty_doc_is_empty_vector() {
        let model = TfIdf::fit(&["something"]);
        assert!(model.transform("").is_empty());
        // Distance to anything is 1 by convention (no shared terms).
        let v = model.transform("something");
        assert!((cosine_distance(&model.transform(""), &v) - 1.0).abs() < 1e-6);
    }
}
