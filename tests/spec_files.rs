//! The shipped example spec files stay parseable and valid.
//!
//! `examples/specs/*.toml` are generated with `hotspots spec <name>`;
//! this suite guards against the registry or the canonical form
//! drifting away from the files (or a hand edit breaking them) without
//! anyone noticing.

use hotspots_scenario::ScenarioSpec;
use std::path::PathBuf;

fn specs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs")
}

fn spec_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .expect("examples/specs exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    files
}

#[test]
fn ships_one_spec_per_preset_family() {
    let names: Vec<String> = spec_files()
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    for expected in [
        "fig2",
        "table1",
        "ablations",
        "xmode-slammer",
        "bench-slammer",
    ] {
        assert!(
            names.iter().any(|n| n == expected),
            "missing examples/specs/{expected}.toml (have: {names:?})"
        );
    }
}

#[test]
fn every_spec_file_parses_validates_and_round_trips() {
    for path in spec_files() {
        let text = std::fs::read_to_string(&path).expect("readable spec file");
        let spec = ScenarioSpec::from_toml(&text)
            .unwrap_or_else(|e| panic!("{}: failed to parse: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{}: failed to validate: {e}", path.display()));
        // the emitted form must describe the same scenario
        let reparsed = ScenarioSpec::from_toml(&spec.to_toml())
            .unwrap_or_else(|e| panic!("{}: re-emit failed to parse: {e}", path.display()));
        assert_eq!(
            spec,
            reparsed,
            "{}: TOML round-trip drifted",
            path.display()
        );
    }
}

/// Each file is, byte for byte, the canonical TOML `hotspots spec
/// <name>` prints for its registry preset at paper scale, so a drift in
/// the canonical form shows here as a line, not only as a moved content
/// hash.
#[test]
fn every_spec_file_matches_its_registry_preset() {
    for path in spec_files() {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let preset = hotspots_scenario::find_preset(&name)
            .unwrap_or_else(|| panic!("{name}: spec file has no registry preset"));
        let text = std::fs::read_to_string(&path).expect("readable spec file");
        let canonical = preset.spec(hotspots_scenario::Scale::Paper).to_toml();
        let (file, registry): (Vec<_>, Vec<_>) =
            (text.lines().collect(), canonical.lines().collect());
        if let Some(line) =
            (0..file.len().max(registry.len())).find(|&i| file.get(i) != registry.get(i))
        {
            panic!(
                "{}: stale — regenerate with `hotspots spec {name}`; line {}:\n  file:     {:?}\n  registry: {:?}",
                path.display(),
                line + 1,
                file.get(line),
                registry.get(line),
            );
        }
        assert_eq!(
            text,
            canonical,
            "{}: line endings or final newline differ",
            path.display()
        );
    }
}
