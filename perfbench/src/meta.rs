//! The host and build record attached to every result.

use llsc_shmem::json::push_string;
use std::path::Path;

/// Where and on what a result was measured.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Meta {
    /// The commit checked out, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a hash of the measured sources, which identifies the code
    /// even where no commit is recorded.
    pub source_fnv: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The compiler that built the benchmark.
    pub rustc: String,
    /// Worker threads of the simulator sweeps.
    pub sweep_threads: usize,
    /// The workload seed.
    pub seed: u64,
}

impl Meta {
    /// Collects the record for a run of the benchmark from `root`, the
    /// checkout holding `crates/` and `Cargo.lock`.
    pub fn collect(root: &Path, sweep_threads: usize, seed: u64) -> Meta {
        Meta {
            commit: git_head(root).unwrap_or_else(|| "unknown".to_string()),
            source_fnv: format!("{:016x}", source_fnv(root)),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|text| cpu_model(&text))
                .unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            sweep_threads,
            seed,
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"commit\":");
        push_string(&mut out, &self.commit);
        out.push_str(",\"source_fnv\":");
        push_string(&mut out, &self.source_fnv);
        out.push_str(&format!(",\"nproc\":{},\"cpu_model\":", self.nproc));
        push_string(&mut out, &self.cpu_model);
        out.push_str(",\"rustc\":");
        push_string(&mut out, &self.rustc);
        out.push_str(&format!(
            ",\"sweep_threads\":{},\"seed\":{}}}",
            self.sweep_threads, self.seed
        ));
        out
    }
}

/// The first `model name` field of a `/proc/cpuinfo` text.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// The commit `root/.git/HEAD` names, read without running git.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return Some(commit.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed_ref(&packed, reference)
}

/// The commit `reference` points to in a `packed-refs` text.
fn packed_ref(packed: &str, reference: &str) -> Option<String> {
    packed.lines().find_map(|line| {
        let (commit, name) = line.split_once(' ')?;
        (name == reference).then(|| commit.to_string())
    })
}

/// FNV-1a over the workspace manifests and every file under `crates/`,
/// visited in sorted path order.
fn source_fnv(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend(
            file.strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .bytes(),
        );
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    llsc_shmem::fnv64(&bytes)
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_reads_the_first_model_name() {
        let text = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\n\
                    processor\t: 1\nmodel name\t: other\n";
        assert_eq!(
            cpu_model(text).as_deref(),
            Some("Intel(R) Xeon(R) CPU @ 2.20GHz")
        );
        assert_eq!(cpu_model("processor : 0\n"), None);
    }

    #[test]
    fn packed_refs_resolve_by_exact_name() {
        let packed = "# pack-refs with: peeled fully-peeled sorted\n\
                      aaaa refs/heads/main-old\nbbbb refs/heads/main\n";
        assert_eq!(
            packed_ref(packed, "refs/heads/main").as_deref(),
            Some("bbbb")
        );
        assert_eq!(packed_ref(packed, "refs/heads/dev"), None);
    }

    #[test]
    fn meta_json_carries_every_field() {
        let meta = Meta {
            commit: "abc123".into(),
            source_fnv: "00ff".into(),
            nproc: 2,
            cpu_model: "CPU \"x\"".into(),
            rustc: "rustc 1.0.0".into(),
            sweep_threads: 2,
            seed: 7,
        };
        let json = meta.to_json();
        for key in [
            "commit",
            "source_fnv",
            "nproc",
            "cpu_model",
            "rustc",
            "sweep_threads",
            "seed",
        ] {
            assert!(json.contains(&format!("\"{key}\":")), "missing {key}");
        }
        assert!(json.contains(r#""cpu_model":"CPU \"x\"""#), "{json}");
        assert!(json.ends_with(
            r#""nproc":2,"cpu_model":"CPU \"x\"","rustc":"rustc 1.0.0","sweep_threads":2,"seed":7}"#
        ));
    }

    #[test]
    fn collected_meta_describes_this_host() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let meta = Meta::collect(&root, 3, 11);
        assert!(meta.nproc >= 1);
        assert!(meta.rustc.starts_with("rustc "), "{}", meta.rustc);
        assert_eq!((meta.sweep_threads, meta.seed), (3, 11));
        assert_eq!(meta.source_fnv.len(), 16);
        assert!(!meta.commit.is_empty());
    }
}
