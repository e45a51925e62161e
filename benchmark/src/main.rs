//! Command-line entry of the GreFar benchmark (see the library docs).

use grefar_perfbench::{run, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = run(&args);
    let line = outcome.finish(args.trace);
    for note in &outcome.notes {
        eprintln!("{}: {note}", args.workload);
    }
    for error in &outcome.errors {
        eprintln!("{}: CHECK FAILED: {error}", args.workload);
    }
    println!("{line}");
    if !outcome.correct() {
        std::process::exit(1);
    }
}
