//! Regenerate the paper's exhibits: `report <cmd>` or `report all`.
//!
//! The commands are the two tables in `hpcc_bench` (`ALL`, `STANDALONE`);
//! no argument runs `index`. `report` takes one command name and nothing
//! else: an unknown name or a second argument prints the list and exits
//! with status 2.
//!
//! `report all` prints the concatenated exhibits of `ALL` to stdout
//! (`report all > report_all.txt` regenerates the committed file) and
//! each exhibit's host seconds to stderr, never into the exhibits' text.

use hpcc_bench::Command;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match hpcc_bench::parse(&args) {
        Some(Command::All) => {
            for (name, run) in hpcc_bench::ALL {
                let (secs, out) = hpcc_bench::timed(run);
                eprintln!("{name}: {secs:.2} s");
                print!("=== {name} ===\n\n{out}\n");
            }
        }
        Some(Command::One(run)) => println!("{}", run()),
        None => {
            eprintln!(
                "usage: report [<command>]; commands: {}",
                hpcc_bench::usage()
            );
            std::process::exit(2);
        }
    }
}
