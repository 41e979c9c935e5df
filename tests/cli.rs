//! End-to-end tests of the `paxml` command-line binary: they exercise the
//! exact workflow a downstream user would script (fragment a file, query it,
//! compare algorithms) by spawning the compiled binary.

use std::path::PathBuf;
use std::process::Command;

/// Path of the compiled `paxml` binary inside the cargo target directory.
fn binary() -> PathBuf {
    // Integration tests live in target/<profile>/deps; the binary sits one
    // directory up.
    let mut path = std::env::current_exe().expect("test executable path");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.join(format!("paxml{}", std::env::consts::EXE_SUFFIX))
}

fn demo_document() -> tempfile::NamedTempfile {
    tempfile::NamedTempfile::new(
        "<clientele>\
           <client><name>Anna</name><country>US</country>\
             <broker><name>Etrade</name>\
               <market><name>NASDAQ</name><stock><code>GOOG</code><buy>374</buy></stock></market>\
             </broker></client>\
           <client><name>Lisa</name><country>Canada</country>\
             <broker><name>CIBC</name>\
               <market><name>TSE</name><stock><code>GOOG</code><buy>382</buy></stock></market>\
             </broker></client>\
         </clientele>",
    )
}

/// A tiny self-cleaning temp file (avoids adding a dev-dependency).
mod tempfile {
    use std::io::Write;
    use std::path::{Path, PathBuf};

    pub struct NamedTempfile {
        path: PathBuf,
    }

    impl NamedTempfile {
        pub fn new(contents: &str) -> Self {
            let path = std::env::temp_dir().join(format!(
                "paxml-cli-test-{}-{}.xml",
                std::process::id(),
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .unwrap()
                    .as_nanos()
            ));
            let mut file = std::fs::File::create(&path).expect("create temp file");
            file.write_all(contents.as_bytes()).expect("write temp file");
            NamedTempfile { path }
        }

        pub fn path(&self) -> &Path {
            &self.path
        }
    }

    impl Drop for NamedTempfile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

fn run(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(binary())
        .args(args)
        .output()
        .expect("the paxml binary must exist (cargo builds bins before integration tests)");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn help_lists_the_commands() {
    let (stdout, _, ok) = run(&["help"]);
    assert!(ok);
    for needle in ["query", "fragment", "compare", "--annotations", "--cut-label"] {
        assert!(stdout.contains(needle), "help output missing {needle}");
    }
}

#[test]
fn fragment_command_prints_the_fragment_tree() {
    let doc = demo_document();
    let (stdout, _, ok) = run(&["fragment", doc.path().to_str().unwrap(), "--cut-label", "broker"]);
    assert!(ok);
    assert!(stdout.contains("3 fragments"));
    assert!(stdout.contains("client/broker"));
    assert!(stdout.contains("F0"));
    assert!(stdout.contains("F2"));
}

#[test]
fn query_command_returns_answers_and_costs() {
    let doc = demo_document();
    let (stdout, _, ok) = run(&[
        "query",
        doc.path().to_str().unwrap(),
        "client[country/text()='US']/broker/name",
        "--cut-label",
        "broker",
        "--algorithm",
        "pax3",
        "--annotations",
    ]);
    assert!(ok, "query command failed: {stdout}");
    assert!(stdout.contains("PaX3-XA"));
    assert!(stdout.contains("Etrade"));
    assert!(stdout.contains("bytes"));
}

#[test]
fn centralized_algorithm_skips_the_simulation() {
    let doc = demo_document();
    let (stdout, _, ok) =
        run(&["query", doc.path().to_str().unwrap(), "//stock/code", "--algorithm", "centralized"]);
    assert!(ok);
    assert!(stdout.contains("2 answers"));
    assert!(stdout.contains("GOOG"));
}

#[test]
fn compare_command_checks_all_algorithms_against_the_reference() {
    let doc = demo_document();
    let (stdout, _, ok) = run(&[
        "compare",
        doc.path().to_str().unwrap(),
        "//stock[buy/val() > 380]/code",
        "--cut-label",
        "client",
        "--sites",
        "3",
    ]);
    assert!(ok, "compare failed: {stdout}");
    for needle in ["PaX3-NA", "PaX2-XA", "NaiveCentralized", "reference answers: 1"] {
        assert!(stdout.contains(needle), "compare output missing {needle}: {stdout}");
    }
    assert!(stdout.contains("all algorithms returned exactly the centralized answer set"));
}

#[test]
fn malformed_input_yields_clean_errors() {
    let doc = demo_document();
    // Unknown command.
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    // Unparsable query, and one nested past the parser's bound: a clean
    // error, not an abort.
    let deep = format!("a[{}a{}]", "(".repeat(20_000), ")".repeat(20_000));
    for query in ["a[[", deep.as_str()] {
        let (_, stderr, ok) = run(&["query", doc.path().to_str().unwrap(), query]);
        assert!(!ok);
        assert!(stderr.starts_with("error: "), "{stderr}");
    }
    // Missing file.
    let (_, stderr, ok) = run(&["query", "/nonexistent/file.xml", "a"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
    // Unknown option.
    let (_, stderr, ok) = run(&["query", doc.path().to_str().unwrap(), "a", "--bogus-option", "x"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"));
    // Zero sites: rejected where the flag is parsed, not run on one site.
    for command in ["query", "compare"] {
        let (_, stderr, ok) = run(&[command, doc.path().to_str().unwrap(), "a", "--sites", "0"]);
        assert!(!ok);
        assert!(stderr.contains("error: --sites expects a positive number"), "{stderr}");
    }
}
