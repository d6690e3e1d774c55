//! `--list`, the catalogue and `BENCHMARK.json` agree, and the catalogue
//! stays inside the driver's limits.

use std::collections::HashSet;

use wsd_benchmark::catalog::{benchmark_json, list, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[test]
fn benchmark_json_at_the_root_is_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        benchmark_json(),
        "regenerate with: cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
         --benchmark-json > BENCHMARK.json"
    );
}

#[test]
fn list_names_every_metric_with_unit_direction_and_bound() {
    let listed = list();
    for w in WORKLOADS {
        assert!(listed.contains(w.name), "{} missing from --list", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let line = listed
            .lines()
            .find(|l| l.split_whitespace().next() == Some(m.name))
            .unwrap_or_else(|| panic!("{} missing from --list", m.name));
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(fields[1], m.unit, "{line}");
        assert!(fields[2] == "lower" || fields[2] == "higher", "{line}");
        match m.bound {
            Some(bound) => assert_eq!(fields[3].parse::<f64>().unwrap(), bound, "{line}"),
            None => assert_eq!(fields.len(), 3, "{line}"),
        }
    }
}

#[test]
fn catalogue_stays_inside_the_drivers_limits() {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut names = HashSet::new();
    for w in WORKLOADS {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
            "{}",
            w.name
        );
        assert!(names.insert(w.name), "{} used twice", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name), "{}", m.name);
        assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
        assert!(names.insert(m.name), "{} used twice", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics are bounded");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    // Set-up time is required, in seconds, with the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    assert!(benchmark_json().len() <= 64 * 1024);
}
