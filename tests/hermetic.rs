//! Guards the hermetic-build contract: the workspace must compile and test
//! with **zero** registry dependencies, because the build environment has no
//! network access to crates.io. Every dependency in every manifest must be a
//! `path = "..."` dependency or a `workspace = true` reference to one.
//!
//! The check is a deliberately small hand-rolled TOML section scanner — using
//! a `toml` crate here would itself violate the contract being tested.
//!
//! The build flags are part of the contract too: x86-64 builds must use
//! POPCNT, which `.cargo/config.toml` enables.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// A single dependency spec as written in a manifest.
#[derive(Debug)]
struct DepSpec {
    manifest: PathBuf,
    section: String,
    name: String,
    spec: String,
}

impl DepSpec {
    /// A spec is hermetic when it points at a path dependency, either
    /// directly or by inheriting a `[workspace.dependencies]` entry.
    fn is_hermetic(&self, workspace_paths: &BTreeMap<String, bool>) -> bool {
        if self.spec.contains("path") {
            return true;
        }
        if self.spec.contains("workspace") {
            return workspace_paths.get(&self.name).copied().unwrap_or(false);
        }
        false
    }
}

/// Extracts `name = spec` entries from the dependency sections of one
/// manifest. Sections end at the next `[header]` line.
fn scan_manifest(manifest: &Path) -> Vec<DepSpec> {
    let text = fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("read {}: {e}", manifest.display()));
    let mut deps = Vec::new();
    let mut section: Option<String> = None;
    for raw in text.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            let header = line.trim_matches(|c| c == '[' || c == ']');
            let is_dep_section = header == "dependencies"
                || header == "dev-dependencies"
                || header == "build-dependencies"
                || header == "workspace.dependencies"
                || header.starts_with("target.") && header.ends_with("dependencies");
            section = is_dep_section.then(|| header.to_string());
            continue;
        }
        let Some(ref sec) = section else { continue };
        let Some((name, spec)) = line.split_once('=') else { continue };
        deps.push(DepSpec {
            manifest: manifest.to_path_buf(),
            section: sec.clone(),
            name: name.trim().trim_matches('"').to_string(),
            spec: spec.trim().to_string(),
        });
    }
    deps
}

fn workspace_manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut manifests = vec![root.join("Cargo.toml")];
    let crates = root.join("crates");
    for entry in fs::read_dir(&crates).expect("crates/ directory exists") {
        let manifest = entry.expect("readable dir entry").path().join("Cargo.toml");
        assert!(manifest.is_file(), "workspace member without manifest: {}", manifest.display());
        manifests.push(manifest);
    }
    manifests
}

#[test]
fn every_dependency_is_a_path_dependency() {
    let manifests = workspace_manifests();
    assert!(manifests.len() >= 9, "expected root + member manifests, got {}", manifests.len());

    let all_deps: Vec<DepSpec> = manifests.iter().flat_map(|m| scan_manifest(m)).collect();
    assert!(!all_deps.is_empty(), "scanner found no dependencies at all — parsing bug?");

    // Which `[workspace.dependencies]` names are path deps.
    let workspace_paths: BTreeMap<String, bool> = all_deps
        .iter()
        .filter(|d| d.section == "workspace.dependencies")
        .map(|d| (d.name.clone(), d.spec.contains("path")))
        .collect();

    let offenders: Vec<String> = all_deps
        .iter()
        .filter(|d| !d.is_hermetic(&workspace_paths))
        .map(|d| {
            format!(
                "{} [{}] {} = {}",
                d.manifest.display(),
                d.section,
                d.name,
                d.spec
            )
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "registry (non-path) dependencies found — the build environment has no \
         crates.io access; vendor the code into the workspace instead:\n{}",
        offenders.join("\n")
    );
}

#[test]
fn no_known_registry_crates_appear_in_manifests() {
    // Belt and braces: the crates this workspace historically depended on
    // must not reappear in any manifest under any spelling.
    let banned = ["rand", "proptest", "criterion", "serde", "parking_lot", "crossbeam"];
    for manifest in workspace_manifests() {
        for dep in scan_manifest(&manifest) {
            assert!(
                !banned.contains(&dep.name.as_str()),
                "{} declares banned registry crate `{}` in [{}]",
                dep.manifest.display(),
                dep.name,
                dep.section
            );
        }
    }
}

#[test]
fn workspace_members_all_resolve_locally() {
    // `cargo metadata` is unavailable offline-safe here (it may touch the
    // registry cache), so check the lockfile instead: every package entry
    // must lack a `source` field (registry packages carry one).
    let lockfile = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.lock");
    let text = fs::read_to_string(&lockfile).expect("Cargo.lock exists after a build");
    assert!(
        !text.contains("source = "),
        "Cargo.lock references non-local package sources — workspace is not hermetic"
    );
}

#[test]
fn x86_64_builds_use_popcnt() {
    // `.cargo/config.toml` enables the instruction, and a set RUSTFLAGS
    // drops it with no other sign. No measured stage depends on it any
    // more (the config file has the numbers); the flag and this test go
    // together.
    if cfg!(target_arch = "x86_64") && !cfg!(target_feature = "popcnt") {
        panic!(
            "this x86-64 build lacks POPCNT: a set RUSTFLAGS (or CARGO_ENCODED_RUSTFLAGS) \
             replaces the rustflags of .cargo/config.toml, which cargo also skips when run \
             from outside the repository; add `-C target-feature=+popcnt` to RUSTFLAGS"
        );
    }
}
