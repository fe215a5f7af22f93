//! Regenerate the paper's exhibits: `report <cmd>` or `report all`.
//!
//! The commands are the two tables in `hpcc_bench` (`ALL`, `STANDALONE`);
//! an unknown command prints the list. `--smoke` is taken by the two
//! commands marked `[--smoke]` there and rejected by the rest; `report
//! all --smoke` hands it to the one of them it runs (`resilience`).
//!
//! `report all --out <path>` writes the concatenated exhibits to a file
//! instead of stdout (used to regenerate `report_all.txt`).

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("index");
    let smoke = args.iter().any(|a| a == "--smoke");

    if cmd == "all" {
        let mut buf = String::new();
        for (name, run) in hpcc_bench::ALL {
            buf.push_str(&format!("=== {name} ===\n\n{}\n", run.call(smoke)));
        }
        let out_path = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1));
        match out_path {
            Some(path) => match std::fs::write(path, &buf) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("could not write {path}: {e}");
                    std::process::exit(1);
                }
            },
            None => print!("{buf}"),
        }
    } else {
        match hpcc_bench::run(cmd, smoke) {
            Some(s) => println!("{s}"),
            None => {
                let flag = if smoke { " --smoke" } else { "" };
                eprintln!(
                    "unknown exhibit command '{cmd}{flag}'; try: {}",
                    hpcc_bench::usage()
                );
                std::process::exit(2);
            }
        }
    }
}
