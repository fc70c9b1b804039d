//! `objbench compare <a.json>... -- <b.json>...`: medians of two sets of
//! result files side by side. Refuses, with exit code 3, when the files were
//! not made under the same fingerprint (machine, placement, toolchain,
//! `CO_*` environment, workload, run length, and the same seeds on both
//! sides); only the commit may differ.

use crate::json::Json;
use crate::run::median_f;

/// Fingerprint fields that may differ between the two sides.
const FREE: [&str; 2] = ["commit", "seed"];

pub fn main(args: &[String]) -> i32 {
    match compare(args) {
        Ok(()) => 0,
        Err((code, msg)) => {
            eprintln!("objbench compare: {msg}");
            code
        }
    }
}

struct ResultFile {
    path: String,
    fingerprint: Json,
    metrics: Vec<(String, f64, String)>,
}

fn load(path: &str) -> Result<ResultFile, (i32, String)> {
    let text = std::fs::read_to_string(path).map_err(|e| (2, format!("{path}: {e}")))?;
    let json = Json::parse(text.trim()).map_err(|e| (2, format!("{path}: {e}")))?;
    let fingerprint = json
        .get("fingerprint")
        .cloned()
        .ok_or((2, format!("{path}: no fingerprint")))?;
    let metrics = match json.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(k, v)| {
                let value = v.get("value")?.as_f64()?;
                let unit = match v.get("unit") {
                    Some(Json::Str(u)) => u.clone(),
                    _ => String::new(),
                };
                Some((k.clone(), value, unit))
            })
            .collect(),
        _ => return Err((2, format!("{path}: no metrics"))),
    };
    Ok(ResultFile {
        path: path.to_owned(),
        fingerprint,
        metrics,
    })
}

fn fixed(fp: &Json) -> Vec<(String, Json)> {
    match fp {
        Json::Obj(fields) => fields
            .iter()
            .filter(|(k, _)| !FREE.contains(&k.as_str()))
            .cloned()
            .collect(),
        _ => Vec::new(),
    }
}

fn seeds(side: &[ResultFile]) -> Vec<String> {
    let mut s: Vec<String> = side
        .iter()
        .map(|r| {
            r.fingerprint
                .get("seed")
                .map(Json::render)
                .unwrap_or_default()
        })
        .collect();
    s.sort();
    s
}

fn compare(args: &[String]) -> Result<(), (i32, String)> {
    let split = args.iter().position(|a| a == "--").ok_or((
        2,
        "usage: objbench compare <a.json>... -- <b.json>...".to_owned(),
    ))?;
    let a = args[..split]
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    let b = args[split + 1..]
        .iter()
        .map(|p| load(p))
        .collect::<Result<Vec<_>, _>>()?;
    if a.is_empty() || b.is_empty() {
        return Err((2, "each side needs at least one result file".to_owned()));
    }
    let reference = fixed(&a[0].fingerprint);
    for r in a.iter().chain(&b) {
        let fp = fixed(&r.fingerprint);
        if fp != reference {
            let differing: Vec<&str> = reference
                .iter()
                .zip(&fp)
                .filter(|(x, y)| x != y)
                .map(|(x, _)| x.0.as_str())
                .collect();
            return Err((
                3,
                format!(
                    "refused: {} has another fingerprint than {} (differs in {:?})",
                    r.path, a[0].path, differing
                ),
            ));
        }
    }
    if seeds(&a) != seeds(&b) {
        return Err((
            3,
            "refused: the two sides were run on different seeds".to_owned(),
        ));
    }
    println!(
        "{:<30} {:>14} {:>14} {:>9}",
        "metric", "a (median)", "b (median)", "b/a - 1"
    );
    for (name, _, unit) in &a[0].metrics {
        let side = |rs: &[ResultFile]| -> Vec<f64> {
            rs.iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1))
                .collect()
        };
        let (va, vb) = (side(&a), side(&b));
        if va.is_empty() || vb.is_empty() {
            continue;
        }
        let (ma, mb) = (median_f(va), median_f(vb));
        println!(
            "{name:<30} {ma:>14.4} {mb:>14.4} {:>+8.1}% {unit}",
            (mb / ma - 1.0) * 100.0
        );
    }
    Ok(())
}
