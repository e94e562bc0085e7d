//! Evaluation metrics used across the Table III–VII experiments: BLEU,
//! top-1 accuracy, AUC, normalized entropy, Fréchet distance, exact-match /
//! F1 for spans, and word error rate.

/// BLEU score (n-gram precision up to 4 with brevity penalty), in the
/// conventional 0–100 range, averaged over candidate/reference pairs.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn bleu(candidates: &[Vec<usize>], references: &[Vec<usize>]) -> f64 {
    assert_eq!(candidates.len(), references.len());
    let max_n = 4;
    let mut match_counts = vec![0usize; max_n];
    let mut cand_counts = vec![0usize; max_n];
    let mut cand_len = 0usize;
    let mut ref_len = 0usize;
    for (c, r) in candidates.iter().zip(references.iter()) {
        cand_len += c.len();
        ref_len += r.len();
        for n in 1..=max_n {
            if c.len() < n {
                continue;
            }
            cand_counts[n - 1] += c.len() - n + 1;
            // Clipped n-gram matches.
            let mut ref_grams: Vec<(&[usize], usize)> = Vec::new();
            if r.len() >= n {
                for g in r.windows(n) {
                    match ref_grams.iter_mut().find(|(k, _)| *k == g) {
                        Some((_, cnt)) => *cnt += 1,
                        None => ref_grams.push((g, 1)),
                    }
                }
            }
            for g in c.windows(n) {
                if let Some((_, cnt)) = ref_grams.iter_mut().find(|(k, _)| *k == g) {
                    if *cnt > 0 {
                        *cnt -= 1;
                        match_counts[n - 1] += 1;
                    }
                }
            }
        }
    }
    // No unigram overlap at all: the candidate is unrelated.
    if match_counts[0] == 0 {
        return 0.0;
    }
    // Smoothed precisions for higher orders (Lin & Och style: 0.5 counts
    // for orders with no matches), standard for short-segment BLEU.
    let mut log_precision = 0.0f64;
    let mut orders = 0usize;
    for n in 0..max_n {
        if cand_counts[n] == 0 {
            continue;
        }
        let p = if match_counts[n] > 0 {
            match_counts[n] as f64 / cand_counts[n] as f64
        } else {
            0.5 / cand_counts[n] as f64
        };
        log_precision += p.ln();
        orders += 1;
    }
    let bp = if cand_len >= ref_len {
        1.0
    } else {
        (1.0 - ref_len as f64 / cand_len as f64).exp()
    };
    100.0 * bp * (log_precision / orders.max(1) as f64).exp()
}

/// Top-1 classification accuracy given logits `[n, classes]` (row-major) and
/// integer labels.
pub fn top1_accuracy(logits: &[f32], classes: usize, labels: &[usize]) -> f64 {
    assert_eq!(logits.len(), classes * labels.len());
    let mut correct = 0usize;
    for (i, &label) in labels.iter().enumerate() {
        let row = &logits[i * classes..(i + 1) * classes];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(j, _)| j)
            .expect("nonempty row");
        if pred == label {
            correct += 1;
        }
    }
    correct as f64 / labels.len().max(1) as f64
}

/// Area under the ROC curve from scores and boolean labels (rank statistic;
/// ties get half credit).
pub fn auc(scores: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(scores.len(), labels.len());
    let mut idx: Vec<usize> = (0..scores.len()).collect();
    idx.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
    let positives = labels.iter().filter(|&&l| l).count();
    let negatives = labels.len() - positives;
    if positives == 0 || negatives == 0 {
        return 0.5;
    }
    // Sum of ranks of positives (1-based, averaging tied groups).
    let mut rank_sum = 0.0f64;
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && scores[idx[j + 1]] == scores[idx[i]] {
            j += 1;
        }
        let avg_rank = (i + j + 2) as f64 / 2.0;
        for &k in &idx[i..=j] {
            if labels[k] {
                rank_sum += avg_rank;
            }
        }
        i = j + 1;
    }
    (rank_sum - positives as f64 * (positives as f64 + 1.0) / 2.0)
        / (positives as f64 * negatives as f64)
}

/// Normalized \[cross\] entropy: logloss divided by the entropy of the base
/// click rate — the recommendation-model metric of Table VI (lower is
/// better; 1.0 = no better than predicting the base rate).
pub fn normalized_entropy(probs: &[f32], labels: &[bool]) -> f64 {
    assert_eq!(probs.len(), labels.len());
    let n = labels.len().max(1) as f64;
    let base = labels.iter().filter(|&&l| l).count() as f64 / n;
    let base = base.clamp(1e-6, 1.0 - 1e-6);
    let base_entropy = -(base * base.ln() + (1.0 - base) * (1.0 - base).ln());
    let mut ll = 0.0f64;
    for (&p, &y) in probs.iter().zip(labels.iter()) {
        let p = (p as f64).clamp(1e-7, 1.0 - 1e-7);
        ll -= if y { p.ln() } else { (1.0 - p).ln() };
    }
    (ll / n) / base_entropy
}

/// Fréchet distance between Gaussians fitted to two 2-D point clouds (what
/// FID computes on feature embeddings; here the raw points are the
/// features — see DESIGN.md §4).
pub fn frechet_distance_2d(a: &[[f32; 2]], b: &[[f32; 2]]) -> f64 {
    let stats = |pts: &[[f32; 2]]| -> ([f64; 2], [[f64; 2]; 2]) {
        let n = pts.len().max(1) as f64;
        let mut mean = [0.0f64; 2];
        for p in pts {
            mean[0] += p[0] as f64 / n;
            mean[1] += p[1] as f64 / n;
        }
        let mut cov = [[0.0f64; 2]; 2];
        for p in pts {
            let d = [p[0] as f64 - mean[0], p[1] as f64 - mean[1]];
            for i in 0..2 {
                for j in 0..2 {
                    cov[i][j] += d[i] * d[j] / n;
                }
            }
        }
        (mean, cov)
    };
    let (m1, c1) = stats(a);
    let (m2, c2) = stats(b);
    let mean_term = (m1[0] - m2[0]).powi(2) + (m1[1] - m2[1]).powi(2);
    // tr(C1 + C2 - 2 (C1 C2)^{1/2}) via the closed form for 2x2 SPD
    // matrices: tr(sqrt(M)) = sqrt(tr(M) + 2 sqrt(det M)).
    let prod = [
        [
            c1[0][0] * c2[0][0] + c1[0][1] * c2[1][0],
            c1[0][0] * c2[0][1] + c1[0][1] * c2[1][1],
        ],
        [
            c1[1][0] * c2[0][0] + c1[1][1] * c2[1][0],
            c1[1][0] * c2[0][1] + c1[1][1] * c2[1][1],
        ],
    ];
    let tr_prod = prod[0][0] + prod[1][1];
    let det_prod = (prod[0][0] * prod[1][1] - prod[0][1] * prod[1][0]).max(0.0);
    let tr_sqrt = (tr_prod + 2.0 * det_prod.sqrt()).max(0.0).sqrt();
    mean_term + c1[0][0] + c1[1][1] + c2[0][0] + c2[1][1] - 2.0 * tr_sqrt
}

/// Exact-match and token-level F1 for predicted vs gold spans
/// `(start, end)` inclusive — the SQuAD-style metrics of Table V.
pub fn span_em_f1(pred: &[(usize, usize)], gold: &[(usize, usize)]) -> (f64, f64) {
    assert_eq!(pred.len(), gold.len());
    let mut em = 0.0f64;
    let mut f1 = 0.0f64;
    for (&(ps, pe), &(gs, ge)) in pred.iter().zip(gold.iter()) {
        if ps == gs && pe == ge {
            em += 1.0;
        }
        let overlap_start = ps.max(gs);
        let overlap_end = pe.min(ge);
        if overlap_end < overlap_start {
            continue;
        }
        let overlap = overlap_end - overlap_start + 1;
        let p_len = pe - ps + 1;
        let g_len = ge - gs + 1;
        let precision = overlap as f64 / p_len as f64;
        let recall = overlap as f64 / g_len as f64;
        f1 += 2.0 * precision * recall / (precision + recall);
    }
    let n = pred.len().max(1) as f64;
    (100.0 * em / n, 100.0 * f1 / n)
}

/// Word error rate: Levenshtein distance between hypothesis and reference,
/// normalized by reference length, averaged and scaled to percent.
pub fn word_error_rate(hyps: &[Vec<usize>], refs: &[Vec<usize>]) -> f64 {
    assert_eq!(hyps.len(), refs.len());
    let mut total_edits = 0usize;
    let mut total_len = 0usize;
    for (h, r) in hyps.iter().zip(refs.iter()) {
        total_edits += edit_distance(h, r);
        total_len += r.len();
    }
    100.0 * total_edits as f64 / total_len.max(1) as f64
}

fn edit_distance(a: &[usize], b: &[usize]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bleu_perfect_and_zero() {
        let c = vec![vec![1, 2, 3, 4, 5]];
        assert!((bleu(&c, &c) - 100.0).abs() < 1e-9);
        let r = vec![vec![6, 7, 8, 9, 10]];
        assert_eq!(bleu(&c, &r), 0.0);
    }

    #[test]
    fn bleu_partial_overlap_is_between() {
        let c = vec![vec![1, 2, 3, 9, 9, 9, 9]];
        let r = vec![vec![1, 2, 3, 4, 5, 6, 7]];
        let s = bleu(&c, &r);
        assert!(s > 0.0 && s < 100.0, "{s}");
        // More overlap scores higher.
        let c2 = vec![vec![1, 2, 3, 4, 5, 9, 9]];
        assert!(bleu(&c2, &r) > s);
    }

    #[test]
    fn bleu_brevity_penalty() {
        // A too-short candidate with perfect n-gram precision is penalized.
        let c = vec![vec![1, 2, 3, 4, 5]];
        let r = vec![vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]];
        let s = bleu(&c, &r);
        assert!(s < 100.0 * (1.0 - 2.0f64).exp() + 1.0, "{s}");
    }

    #[test]
    fn top1_counts_correct_rows() {
        let logits = vec![1.0, 2.0, /* pred 1 */ 5.0, 0.0 /* pred 0 */];
        assert_eq!(top1_accuracy(&logits, 2, &[1, 1]), 0.5);
    }

    #[test]
    fn auc_perfect_random_inverted() {
        let labels = [true, true, false, false];
        assert_eq!(auc(&[0.9, 0.8, 0.2, 0.1], &labels), 1.0);
        assert_eq!(auc(&[0.1, 0.2, 0.8, 0.9], &labels), 0.0);
        let tied = auc(&[0.5, 0.5, 0.5, 0.5], &labels);
        assert!((tied - 0.5).abs() < 1e-9);
    }

    #[test]
    fn normalized_entropy_of_base_rate_is_one() {
        let labels: Vec<bool> = (0..100).map(|i| i % 4 == 0).collect();
        let probs = vec![0.25f32; 100];
        let ne = normalized_entropy(&probs, &labels);
        assert!((ne - 1.0).abs() < 1e-6, "{ne}");
        // Perfect predictions get NE near 0.
        let perfect: Vec<f32> = labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
        assert!(normalized_entropy(&perfect, &labels) < 0.01);
    }

    #[test]
    fn frechet_identical_clouds_is_zero() {
        let (pts, _) = crate::data::gaussian_mixture_2d(1, 500);
        let d = frechet_distance_2d(&pts, &pts);
        assert!(d.abs() < 1e-6, "{d}");
        // A shifted cloud has distance ~ shift^2.
        let shifted: Vec<[f32; 2]> = pts.iter().map(|p| [p[0] + 3.0, p[1]]).collect();
        let d = frechet_distance_2d(&pts, &shifted);
        assert!((d - 9.0).abs() < 0.5, "{d}");
    }

    #[test]
    fn span_metrics() {
        let (em, f1) = span_em_f1(&[(2, 4), (5, 6)], &[(2, 4), (7, 8)]);
        assert_eq!(em, 50.0);
        assert!((50.0 - 1e-9..100.0).contains(&f1));
        // Half-overlapping span gets partial F1.
        let (_, f1) = span_em_f1(&[(0, 3)], &[(2, 5)]);
        assert!((f1 - 50.0).abs() < 1.0, "{f1}");
    }

    #[test]
    fn wer_basics() {
        let r = vec![vec![1, 2, 3, 4]];
        assert_eq!(word_error_rate(&r, &r), 0.0);
        let h = vec![vec![1, 9, 3, 4]];
        assert_eq!(word_error_rate(&h, &r), 25.0);
        let h = vec![vec![1, 2, 3]];
        assert_eq!(word_error_rate(&h, &r), 25.0);
    }
}
