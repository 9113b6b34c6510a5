//! `sfs-benchmark`: see `sfs_benchmark::cli`.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(sfs_benchmark::cli::main_with(&args));
}
