//! Engine microbenchmarks: event-loop throughput on contended and
//! uncontended configurations.

use ksa_bench::microbench;
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::prog::Corpus;
use ksa_kernel::{Arg, Call, Program, SysNo};
use ksa_varbench::{run, RunConfig};

fn mixed_corpus() -> Corpus {
    Corpus {
        programs: vec![
            Program {
                calls: vec![
                    Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                    Call::new(SysNo::Write, vec![Arg::Ref(0), Arg::Const(16_000)]),
                    Call::new(SysNo::Fsync, vec![Arg::Ref(0)]),
                ],
            },
            Program {
                calls: vec![
                    Call::new(SysNo::Mmap, vec![Arg::Const(64), Arg::Const(1)]),
                    Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
                ],
            },
            Program {
                calls: vec![
                    Call::new(SysNo::Getpid, vec![]),
                    Call::new(SysNo::SchedYield, vec![]),
                    Call::new(SysNo::FutexWake, vec![Arg::Const(3), Arg::Const(1)]),
                ],
            },
        ],
    }
}

fn main() {
    let corpus = mixed_corpus();
    let group = microbench::group("engine_throughput").sample_size(10);
    for cores in [4usize, 16] {
        for kind in [EnvKind::Native, EnvKind::Vm(cores)] {
            let label = format!("{}c/{}", cores, kind.label());
            group.bench(&label, || {
                run(
                    &RunConfig::new(
                        EnvSpec::new(
                            Machine {
                                cores,
                                mem_mib: 1024 * cores as u64 / 4,
                            },
                            kind,
                        ),
                        5,
                        1,
                    ),
                    &corpus,
                )
            });
        }
    }
}
