//! The bench bins' shared command line, and where `--trace <base>`
//! observability artifacts land on disk.
//!
//! Every bench bin reads its `--quick` / `--trace <base>` flags with
//! [`bench_flags`]. Every bin that records traces/metrics (`multi`,
//! `simbench`, `fleet`) writes `<base>.trace.json`,
//! `<base>.trace.jsonl`, and `<base>.metrics.prom` with
//! [`write_artifacts`]. Historically a bare stem like `multi.quick`
//! scattered those files across the repository root; they now collect
//! under a gitignored `artifacts/` directory instead. An explicit path
//! (anything containing a separator) is honored verbatim, so callers
//! can still direct output wherever they want.

use std::io;
use std::path::{Path, PathBuf};

use crate::{MetricsRegistry, Tracer};

/// The flags every bench bin shares, read from `args` (the process
/// arguments): `--quick`, the small sweep CI runs end to end, and the
/// base of `--trace <base>`, under which the run's artifacts are
/// written (see [`write_artifacts`]).
pub fn bench_flags(args: impl IntoIterator<Item = String>) -> (bool, Option<String>) {
    let args: Vec<String> = args.into_iter().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args.iter().position(|a| a == "--trace");
    (quick, trace.and_then(|i| args.get(i + 1).cloned()))
}

/// Writes one run's artifacts under the resolved `base` (see
/// [`artifact_base`]): `<base>.trace.json` (Chrome trace-event JSON),
/// `<base>.trace.jsonl` (raw span rows) and `<base>.metrics.prom`
/// (Prometheus text). Returns the resolved base.
///
/// # Errors
///
/// Propagates directory-creation and write failures.
pub fn write_artifacts(
    base: &str,
    tracer: &Tracer,
    registry: &MetricsRegistry,
) -> io::Result<PathBuf> {
    let base = artifact_base(base)?;
    let stem = base.display();
    std::fs::write(format!("{stem}.trace.json"), tracer.to_chrome_trace())?;
    std::fs::write(format!("{stem}.trace.jsonl"), tracer.to_jsonl())?;
    std::fs::write(format!("{stem}.metrics.prom"), registry.render_prometheus())?;
    Ok(base)
}

/// The directory bare-stem artifacts collect under.
pub const ARTIFACT_DIR: &str = "artifacts";

/// Resolves a `--trace` base: a bare stem lands under
/// [`ARTIFACT_DIR`] (created on demand); a path with a separator is
/// returned unchanged.
///
/// # Errors
///
/// Propagates the failure to create [`ARTIFACT_DIR`].
pub fn artifact_base(base: &str) -> io::Result<PathBuf> {
    if base.contains('/') || base.contains(std::path::MAIN_SEPARATOR) {
        return Ok(PathBuf::from(base));
    }
    let dir = Path::new(ARTIFACT_DIR);
    std::fs::create_dir_all(dir)?;
    Ok(dir.join(base))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_stem_lands_in_artifact_dir() {
        let p = artifact_base("t.quick").unwrap();
        assert_eq!(p, Path::new(ARTIFACT_DIR).join("t.quick"));
        assert!(Path::new(ARTIFACT_DIR).is_dir());
    }

    #[test]
    fn flags_read_quick_and_trace_base() {
        let flags = |a: &[&str]| bench_flags(a.iter().map(|s| s.to_string()));
        assert_eq!(flags(&["bin"]), (false, None));
        let both = flags(&["bin", "--trace", "m.quick", "--check-serial", "--quick"]);
        assert_eq!(both, (true, Some("m.quick".to_string())));
    }

    #[test]
    fn explicit_path_is_untouched() {
        let p = artifact_base("/tmp/elsewhere/t.quick").unwrap();
        assert_eq!(p, Path::new("/tmp/elsewhere/t.quick"));
    }
}
