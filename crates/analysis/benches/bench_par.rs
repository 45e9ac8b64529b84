//! Criterion benches for the data-parallel analysis stages: the
//! sensitive-data scan fanned out through `par_map` (serial vs.
//! 8 workers over the same corpus) and the TF-IDF vectorization split.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use fw_abuse::sensitive::SensitiveScanner;
use fw_analysis::par_map;
use fw_analysis::text::TfIdf;

/// A synthetic response corpus with sensitive tokens sprinkled in, so
/// the scanner does real matching + anonymization work per document.
fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "{{\"service\":\"svc{i}\",\"password\": \"hunter{i}\",\
                 \"ip\":\"10.0.{}.{}\",\"note\":\"online slot betting casino \
                 jackpot deposit bonus spin welcome round {i}\"}}",
                i % 256,
                (i * 7) % 256
            )
        })
        .collect()
}

fn bench_sensitive_scan(c: &mut Criterion) {
    let docs = corpus(200);
    let scanner = SensitiveScanner::new("faas-wild1");

    let mut group = c.benchmark_group("sensitive_scan_par");
    group.throughput(Throughput::Elements(docs.len() as u64));
    for workers in [1usize, 8] {
        group.bench_function(&format!("workers_{workers}"), |b| {
            b.iter(|| {
                let out = par_map(&docs, workers, "", None, |_, d| {
                    scanner.scan_and_anonymize(d)
                });
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_tfidf_vectorize(c: &mut Criterion) {
    let docs = corpus(200);

    let mut group = c.benchmark_group("tfidf_vectorize_par");
    group.throughput(Throughput::Elements(docs.len() as u64));
    for workers in [1usize, 8] {
        group.bench_function(&format!("workers_{workers}"), |b| {
            b.iter(|| {
                let (_, vecs) = TfIdf::fit_transform_par(&docs, workers);
                black_box(vecs.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sensitive_scan, bench_tfidf_vectorize);
criterion_main!(benches);
