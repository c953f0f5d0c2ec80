//! The checker: each of the paper's shape claims judged on the results
//! JSON, and EXPERIMENTS.md's tables compared against that JSON.
//!
//! A results file reads as a list of *facts*. Each row's leading key
//! fields (their count is declared per file) are coordinates; every other
//! number is one fact with a `field` coordinate naming it, plus an `x`
//! coordinate for each element of a series. A fact's label is its
//! coordinate values joined by ` · `, e.g. `PaCM · NVIDIA T4 · top1`.
//! Claims group facts into *slices* that differ only along one axis.

use crate::table::File;
use crate::Experiment;
use serde::Content;
use std::path::Path;

/// Which side of a comparison wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Order {
    Higher,
    Lower,
}

impl Order {
    fn at_least(self, a: f64, b: f64) -> bool {
        match self {
            Order::Higher => a >= b,
            Order::Lower => a <= b,
        }
    }
}

/// A claim's shape over the facts it selects. `axis` names the
/// coordinate that varies within a slice; a value never reached (`null`)
/// loses every comparison.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Shape {
    /// In every slice, the fact at `best` is at least as high (low) as
    /// every other.
    Leads { axis: &'static str, best: &'static str, order: Order },
    /// In every slice holding `a` or `b`, `a` is reached and at least as
    /// high (low) as `b`.
    Dominates { axis: &'static str, a: &'static str, b: &'static str, order: Order },
    /// In every slice, in file order, no value falls (rises).
    Monotone { axis: &'static str, order: Order },
    /// The mean of the facts at `num`, divided by the mean at `den` (by 1
    /// when `den` is empty), lies in `[lo, hi]`, and every one of those
    /// facts was reached.
    Band { axis: &'static str, num: &'static str, den: &'static str, lo: f64, hi: f64 },
}

/// One of the paper's shape claims, judged on its entry's first file: its
/// text (EXPERIMENTS.md rows name it verbatim), the facts it reads (those
/// whose coordinates take one of the listed values — a coordinate listed
/// twice accepts either), its shape, and the verdict the committed
/// quick-scale results give.
#[derive(Debug)]
#[allow(missing_docs)]
pub struct Claim {
    pub text: &'static str,
    pub(crate) only: &'static [(&'static str, &'static str)],
    pub(crate) shape: Shape,
    pub expect: Verdict,
}

/// Whether a claim's shape shows in the results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Verdict {
    Holds,
    Flipped,
}

/// One number of a results file and its coordinates; `NaN` stands for a
/// value that was never reached (`null`).
#[derive(Debug, Clone)]
struct Fact {
    coords: Vec<(String, String)>,
    value: f64,
}

impl Fact {
    fn label(&self) -> String {
        self.coords.iter().map(|(_, v)| v.as_str()).collect::<Vec<_>>().join(" · ")
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.coords.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// A key as text: strings as is, numbers rounded to six decimals.
fn text(v: &Content) -> String {
    match v {
        Content::Str(s) => s.clone(),
        Content::F64(x) => format!("{}", (x * 1e6).round() / 1e6),
        other => other.as_f64().map_or_else(String::new, |x| x.to_string()),
    }
}

fn num(v: &Content) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

/// The facts of one results file. With `parity` declared, a row holding
/// a `curve` also yields `parity_s`: the search time at which its curve
/// first reaches the `final_ms` of the row in its slice whose last key is
/// the reference.
fn facts(file: &File, json: &Content) -> Vec<Fact> {
    let rows: Vec<&[(String, Content)]> =
        json.as_seq().unwrap_or_default().iter().filter_map(Content::as_map).collect();
    let keys = |row: &[(String, Content)]| -> Vec<(String, String)> {
        row[..file.keys].iter().map(|(k, v)| (k.clone(), text(v))).collect()
    };
    let field = |row: &[(String, Content)], name: &str| {
        row.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
    };
    let x = |i: usize| file.axis.get(i).map_or(i.to_string(), |a| a.to_string());
    let mut out = Vec::new();
    for row in &rows {
        let coords = keys(row);
        let mut push = |name: &str, x: Option<String>, value: f64| {
            let mut coords = coords.clone();
            coords.push(("field".into(), name.into()));
            coords.extend(x.map(|x| ("x".to_string(), x)));
            out.push(Fact { coords, value });
        };
        for (name, v) in &row[file.keys..] {
            let Some(items) = v.as_seq() else {
                push(name, None, num(v));
                continue;
            };
            for (i, item) in items.iter().enumerate() {
                match item.as_seq() {
                    None => push(name, Some(x(i)), num(item)),
                    Some([x, y]) => push(name, Some(text(x)), num(y)),
                    Some(_) => {} // curve points: read by `parity` only
                }
            }
        }
        if let (Some(reference), Some(curve)) = (file.parity, field(row, "curve")) {
            let slice = &coords[..coords.len() - 1];
            let base = rows.iter().map(|r| (keys(r), *r)).find(|(k, _)| {
                k[..k.len() - 1] == *slice && k.last().map(|(_, v)| v.as_str()) == Some(reference)
            });
            let final_ms =
                base.and_then(|(_, r)| field(r, "final_ms")).map_or(f64::NAN, |v| num(&v));
            let points = curve.as_seq().unwrap_or_default().iter().filter_map(Content::as_seq);
            let t =
                points.map(|p| (num(&p[1]), num(&p[2]))).find(|(_, best)| best * 1e3 <= final_ms);
            push("parity_s", None, t.map_or(f64::NAN, |(t, _)| t));
        }
    }
    out
}

/// Judges one claim on a file's facts: the verdict and the evidence —
/// `held/slices`, or for a band `mean (reached/total)` per side and
/// their ratio.
fn verdict(claim: &Claim, facts: &[Fact]) -> (Verdict, String) {
    let only = &claim.only;
    let picked: Vec<&Fact> = facts
        .iter()
        .filter(|f| {
            only.iter().all(|(n, _)| only.iter().any(|(m, v)| m == n && f.get(n) == Some(v)))
        })
        .collect();
    let of = |holds: bool| if holds { Verdict::Holds } else { Verdict::Flipped };
    let axis = match claim.shape {
        Shape::Leads { axis, .. }
        | Shape::Dominates { axis, .. }
        | Shape::Monotone { axis, .. } => axis,
        Shape::Band { axis, num, den, lo, hi } => {
            let mean = |at: &str| {
                let values: Vec<f64> =
                    picked.iter().filter(|f| f.get(axis) == Some(at)).map(|f| f.value).collect();
                let reached: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
                let mean = reached.iter().sum::<f64>() / reached.len() as f64;
                let all = reached.len() == values.len() && !values.is_empty();
                (mean, all, format!("{mean:.2} ({}/{})", reached.len(), values.len()))
            };
            let (n, n_all, n_text) = mean(num);
            if den.is_empty() {
                return (of(n_all && (lo..=hi).contains(&n)), n_text);
            }
            let (d, d_all, d_text) = mean(den);
            let (ratio, all) = (n / d, n_all && d_all);
            return (
                of(all && (lo..=hi).contains(&ratio)),
                format!("{n_text} ÷ {d_text} = {ratio:.2}"),
            );
        }
    };
    let mut slices: Vec<(String, Vec<(&str, f64)>)> = Vec::new();
    for f in &picked {
        let key: Vec<&str> =
            f.coords.iter().filter(|(k, _)| k != axis).map(|(_, v)| v.as_str()).collect();
        let (key, at) = (key.join(" · "), f.get(axis).unwrap_or_default());
        match slices.iter_mut().find(|(k, _)| *k == key) {
            Some((_, values)) => values.push((at, f.value)),
            None => slices.push((key, vec![(at, f.value)])),
        }
    }
    let value = |s: &[(&str, f64)], at: &str| s.iter().find(|(a, _)| *a == at).map(|(_, v)| *v);
    let held = |s: &[(&str, f64)]| match claim.shape {
        Shape::Leads { best, order, .. } => value(s, best).is_some_and(|b| {
            !b.is_nan() && s.iter().all(|(_, v)| v.is_nan() || order.at_least(b, *v))
        }),
        Shape::Dominates { a, b, order, .. } => match (value(s, a), value(s, b)) {
            (None, None) => true,
            (Some(a), b) => !a.is_nan() && b.is_none_or(|b| b.is_nan() || order.at_least(a, b)),
            (None, Some(_)) => false,
        },
        Shape::Monotone { order, .. } => s.windows(2).all(|w| order.at_least(w[1].1, w[0].1)),
        Shape::Band { .. } => unreachable!("judged above"),
    };
    let ok = slices.iter().filter(|(_, s)| held(s)).count();
    (of(ok == slices.len() && !slices.is_empty()), format!("{ok}/{}", slices.len()))
}

/// Reads one results file of `dir` as facts.
fn read(dir: &Path, file: &File) -> Result<Vec<Fact>, String> {
    let path = dir.join(format!("{}.json", file.name));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = serde_json::parse_content(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(facts(file, &json))
}

/// Every claim of `e` judged on its first results file in `dir`: the
/// claim, the computed verdict and its evidence.
///
/// # Errors
/// Fails when the results file is missing or unreadable.
pub fn judge(e: &Experiment, dir: &Path) -> Result<Vec<(&'static Claim, Verdict, String)>, String> {
    let facts = read(dir, &e.files[0])?;
    Ok(e.claims.iter().map(|c| (c, verdict(c, &facts))).map(|(c, (v, ev))| (c, v, ev)).collect())
}

/// Whether a table cell quotes `value` at the cell's own precision:
/// `–` for a value never reached, else a leading number whose decimals
/// set the rounding (units after it are ignored).
fn quotes(cell: &str, value: f64) -> bool {
    if cell == "–" {
        return value.is_nan();
    }
    let number = cell.split(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).next();
    let number = number.unwrap_or_default();
    let decimals = number.split_once('.').map_or(0, |(_, d)| d.len());
    !number.is_empty() && format!("{value:.decimals$}") == number
}

/// Every way `doc` (EXPERIMENTS.md) disagrees with the results files in
/// `dir` or with the recorded verdicts. Each entry owns the `##` section
/// whose heading names its id in backticks. In that section, a table with
/// a `verdict` column lists claims by their text, with the computed
/// evidence under `regenerated`; every claim must be listed. Any other
/// table with a `regenerated` column lists facts by label, and that cell
/// must quote the fact.
pub fn doc_mismatches<'a>(
    doc: &str,
    dir: &Path,
    experiments: impl IntoIterator<Item = &'a Experiment>,
) -> Vec<String> {
    let mut bad = Vec::new();
    for e in experiments {
        let mut fail = |why: String| bad.push(format!("{}: {why}", e.id));
        let facts: Result<Vec<Vec<Fact>>, String> = e.files.iter().map(|f| read(dir, f)).collect();
        let (judged, facts) = match (judge(e, dir), facts) {
            (Ok(judged), Ok(facts)) => (judged, facts.concat()),
            (Err(err), _) | (_, Err(err)) => {
                fail(err);
                continue;
            }
        };
        for (claim, v, ev) in judged.iter().filter(|(c, v, _)| *v != c.expect) {
            fail(format!("`{}` is {v:?} ({ev}), recorded {:?}", claim.text, claim.expect));
        }
        let heading = format!("(`{}`)", e.id);
        let mut sections = doc.split("\n## ").skip(1);
        let Some(section) =
            sections.find(|s| s.lines().next().is_some_and(|h| h.contains(&heading)))
        else {
            fail(format!("no `## … {heading}` section"));
            continue;
        };
        let (mut listed, mut header) = (Vec::new(), Vec::new());
        for line in section.lines().map(str::trim) {
            let Some(line) = line.strip_prefix('|') else {
                header.clear();
                continue;
            };
            let row: Vec<&str> = line.trim_end_matches('|').split('|').map(|c| c.trim()).collect();
            if header.is_empty() {
                header = row;
                continue;
            }
            if row[0].starts_with("---") {
                continue;
            }
            let col = |name: &str| header.iter().position(|h| *h == name).and_then(|i| row.get(i));
            let (label, regenerated) = (row[0].trim_matches('`'), col("regenerated"));
            if let Some(cell) = col("verdict") {
                match judged.iter().find(|(c, ..)| c.text == label) {
                    None => fail(format!("no claim `{label}`")),
                    Some((claim, v, ev)) => {
                        listed.push(claim.text);
                        if *cell != format!("{v:?}") || regenerated != Some(&ev.as_str()) {
                            fail(format!(
                                "`{label}` is {v:?} ({ev}); the doc says {cell} ({regenerated:?})"
                            ));
                        }
                    }
                }
            } else if let Some(cell) = regenerated {
                match facts.iter().find(|f| f.label() == label) {
                    None => fail(format!("no number `{label}` in the results")),
                    Some(f) if !quotes(cell, f.value) => fail(format!(
                        "`{label}` is {} in the results; the doc says {cell}",
                        f.value
                    )),
                    Some(_) => {}
                }
            }
        }
        for claim in e.claims.iter().filter(|c| !listed.contains(&c.text)) {
            fail(format!("claim `{}` has no verdict row", claim.text));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use Order::{Higher, Lower};
    use Verdict::{Flipped, Holds};

    type Only = &'static [(&'static str, &'static str)];

    fn judged(keys: usize, rows: &str, only: Only, shape: Shape) -> (Verdict, String) {
        let file = File { name: "t", keys, axis: &[], parity: Some("base") };
        let facts = facts(&file, &serde_json::parse_content(rows).unwrap());
        verdict(&Claim { text: "", only, shape, expect: Holds }, &facts)
    }

    #[test]
    fn leads_holds_only_when_the_leader_wins_every_slice() {
        let rows = |a: f64| {
            format!(
                r#"[{{"m": "A", "p": "p", "v": 0.9}}, {{"m": "B", "p": "p", "v": 0.8}},
                    {{"m": "A", "p": "q", "v": {a}}}, {{"m": "B", "p": "q", "v": 0.6}}]"#
            )
        };
        let shape = Shape::Leads { axis: "m", best: "A", order: Higher };
        assert_eq!(judged(2, &rows(0.7), &[], shape), (Holds, "2/2".into()));
        assert_eq!(judged(2, &rows(0.5), &[], shape), (Flipped, "1/2".into()));
    }

    #[test]
    fn dominates_reads_one_column_against_another() {
        let rows = |a: f64| {
            format!(r#"[{{"op": "x", "a": 1.0, "b": 2.0}}, {{"op": "y", "a": {a}, "b": 3.0}}]"#)
        };
        let shape = Shape::Dominates { axis: "field", a: "a", b: "b", order: Lower };
        assert_eq!(judged(1, &rows(3.0), &[], shape).0, Holds);
        assert_eq!(judged(1, &rows(3.5), &[], shape), (Flipped, "1/2".into()));
    }

    #[test]
    fn monotone_follows_file_order_within_each_series() {
        let rows =
            |v: f64| format!(r#"[{{"g": "g", "best": [[50, 0.9], [128, {v}], [512, 1.0]]}}]"#);
        let shape = Shape::Monotone { axis: "x", order: Higher };
        assert_eq!(judged(1, &rows(0.95), &[], shape).0, Holds);
        assert_eq!(judged(1, &rows(0.85), &[], shape).0, Flipped);
    }

    #[test]
    fn band_counts_unreached_values_against_the_claim() {
        let rows = |v: &str| {
            format!(r#"[{{"n": "a", "s": 2.0, "t": 1.0}}, {{"n": "b", "s": {v}, "t": 2.0}}]"#)
        };
        let mean = Shape::Band { axis: "field", num: "s", den: "", lo: 1.0, hi: f64::INFINITY };
        assert_eq!(judged(1, &rows("3.0"), &[], mean), (Holds, "2.50 (2/2)".into()));
        // The unreached row drops out of the mean but flips the claim.
        assert_eq!(judged(1, &rows("null"), &[], mean), (Flipped, "2.00 (1/2)".into()));
        let ratio = Shape::Band { axis: "field", num: "s", den: "t", lo: 1.0, hi: 2.0 };
        assert_eq!(judged(1, &rows("3.0"), &[], ratio).1, "2.50 (2/2) ÷ 1.50 (2/2) = 1.67");
        assert_eq!(judged(1, &rows("5.0"), &[], ratio).0, Flipped);
    }

    #[test]
    fn parity_is_read_off_each_curve_against_the_reference_final() {
        let rows = |t: f64| {
            format!(
                r#"[{{"n": "n", "m": "base", "final_ms": 2.0,
                      "curve": [[1, 9.0, 0.003], [2, 50.0, 0.002]]}},
                    {{"n": "n", "m": "new", "final_ms": 1.0,
                      "curve": [[1, 5.0, 0.003], [2, {t}, 0.0015]]}}]"#
            )
        };
        let shape = Shape::Leads { axis: "m", best: "new", order: Lower };
        assert_eq!(judged(2, &rows(20.0), &[("field", "parity_s")], shape).0, Holds);
        assert_eq!(judged(2, &rows(60.0), &[("field", "parity_s")], shape).0, Flipped);
    }

    #[test]
    fn cells_quote_at_their_own_precision() {
        assert!(quotes("0.423", 0.42349) && quotes("8.471 ms", 8.4712) && quotes("1465", 1465.2));
        assert!(!quotes("0.935", 0.423) && !quotes("–", 1.0) && !quotes("n/a", 1.0));
        assert!(quotes("–", f64::NAN));
    }
}
