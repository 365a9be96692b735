//! Pins the cargo features of every first-party manifest. A feature is
//! a second build of the code it gates, so a new one must be added here
//! on purpose, and a removed one cannot quietly come back.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The names declared in a manifest's `[features]` table, in order.
fn feature_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_features = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_features = line == "[features]";
        } else if in_features && !line.starts_with('#') {
            if let Some((name, _)) = line.split_once('=') {
                names.push(name.trim().to_owned());
            }
        }
    }
    names
}

#[test]
fn first_party_features_are_exactly_the_pinned_set() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.to_path_buf()];
    for entry in fs::read_dir(root.join("crates")).expect("read crates/") {
        dirs.push(entry.expect("dir entry").path());
    }
    let mut found: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for dir in dirs {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("read manifest");
        let features = feature_names(&manifest);
        if !features.is_empty() {
            let name = dir.strip_prefix(root).expect("under the root");
            found.insert(name.display().to_string(), features);
        }
    }

    // One build of everything: no first-party manifest declares a feature.
    assert_eq!(found, BTreeMap::new());
}
