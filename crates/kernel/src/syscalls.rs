//! The simulated system-call table.

use crate::category::Category;

/// Every system call the simulated kernel implements, spanning the paper's
/// six categories plus networking. Names match the Linux calls they model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum SysNo {
    // (a) process management / scheduling
    Getpid,
    SchedYield,
    Clone,
    Wait4,
    Kill,
    SchedSetaffinity,
    SchedGetparam,
    Setpriority,
    Nanosleep,
    Getrusage,

    // (b) memory management
    Mmap,
    Munmap,
    Mprotect,
    Madvise,
    Brk,
    Mremap,
    Mlock,
    Munlock,
    Msync,
    Mincore,

    // (c) file I/O
    Read,
    Write,
    Pread,
    Pwrite,
    Lseek,
    Fsync,
    Fdatasync,
    Readv,
    Writev,
    Fallocate,

    // (d) filesystem management
    Open,
    Close,
    Stat,
    Fstat,
    Access,
    Getdents,
    Mkdir,
    Rmdir,
    Unlink,
    Rename,
    Symlink,
    Readlink,
    Truncate,

    // (e) inter-process communication
    Pipe2,
    FutexWait,
    FutexWake,
    Msgget,
    Msgsnd,
    Msgrcv,
    Semget,
    Semop,
    Shmget,
    Shmat,
    Shmdt,
    Eventfd,

    // (f) permissions / capabilities
    Chmod,
    Fchmod,
    Chown,
    Setuid,
    Getuid,
    Capget,
    Capset,
    Umask,
    Setgroups,
    Prctl,

    // (g) networking
    Socket,
    Bind,
    Listen,
    Accept,
    Connect,
    Sendto,
    Recvfrom,
    ShutdownSock,
    EpollCreate,
    EpollWait,
}

impl SysNo {
    /// Every implemented call, in a stable order.
    pub const ALL: [SysNo; 75] = [
        SysNo::Getpid,
        SysNo::SchedYield,
        SysNo::Clone,
        SysNo::Wait4,
        SysNo::Kill,
        SysNo::SchedSetaffinity,
        SysNo::SchedGetparam,
        SysNo::Setpriority,
        SysNo::Nanosleep,
        SysNo::Getrusage,
        SysNo::Mmap,
        SysNo::Munmap,
        SysNo::Mprotect,
        SysNo::Madvise,
        SysNo::Brk,
        SysNo::Mremap,
        SysNo::Mlock,
        SysNo::Munlock,
        SysNo::Msync,
        SysNo::Mincore,
        SysNo::Read,
        SysNo::Write,
        SysNo::Pread,
        SysNo::Pwrite,
        SysNo::Lseek,
        SysNo::Fsync,
        SysNo::Fdatasync,
        SysNo::Readv,
        SysNo::Writev,
        SysNo::Fallocate,
        SysNo::Open,
        SysNo::Close,
        SysNo::Stat,
        SysNo::Fstat,
        SysNo::Access,
        SysNo::Getdents,
        SysNo::Mkdir,
        SysNo::Rmdir,
        SysNo::Unlink,
        SysNo::Rename,
        SysNo::Symlink,
        SysNo::Readlink,
        SysNo::Truncate,
        SysNo::Pipe2,
        SysNo::FutexWait,
        SysNo::FutexWake,
        SysNo::Msgget,
        SysNo::Msgsnd,
        SysNo::Msgrcv,
        SysNo::Semget,
        SysNo::Semop,
        SysNo::Shmget,
        SysNo::Shmat,
        SysNo::Shmdt,
        SysNo::Eventfd,
        SysNo::Chmod,
        SysNo::Fchmod,
        SysNo::Chown,
        SysNo::Setuid,
        SysNo::Getuid,
        SysNo::Capget,
        SysNo::Capset,
        SysNo::Umask,
        SysNo::Setgroups,
        SysNo::Prctl,
        SysNo::Socket,
        SysNo::Bind,
        SysNo::Listen,
        SysNo::Accept,
        SysNo::Connect,
        SysNo::Sendto,
        SysNo::Recvfrom,
        SysNo::ShutdownSock,
        SysNo::EpollCreate,
        SysNo::EpollWait,
    ];

    /// The Linux-style name of the call.
    pub fn name(self) -> &'static str {
        match self {
            SysNo::Getpid => "getpid",
            SysNo::SchedYield => "sched_yield",
            SysNo::Clone => "clone",
            SysNo::Wait4 => "wait4",
            SysNo::Kill => "kill",
            SysNo::SchedSetaffinity => "sched_setaffinity",
            SysNo::SchedGetparam => "sched_getparam",
            SysNo::Setpriority => "setpriority",
            SysNo::Nanosleep => "nanosleep",
            SysNo::Getrusage => "getrusage",
            SysNo::Mmap => "mmap",
            SysNo::Munmap => "munmap",
            SysNo::Mprotect => "mprotect",
            SysNo::Madvise => "madvise",
            SysNo::Brk => "brk",
            SysNo::Mremap => "mremap",
            SysNo::Mlock => "mlock",
            SysNo::Munlock => "munlock",
            SysNo::Msync => "msync",
            SysNo::Mincore => "mincore",
            SysNo::Read => "read",
            SysNo::Write => "write",
            SysNo::Pread => "pread64",
            SysNo::Pwrite => "pwrite64",
            SysNo::Lseek => "lseek",
            SysNo::Fsync => "fsync",
            SysNo::Fdatasync => "fdatasync",
            SysNo::Readv => "readv",
            SysNo::Writev => "writev",
            SysNo::Fallocate => "fallocate",
            SysNo::Open => "open",
            SysNo::Close => "close",
            SysNo::Stat => "stat",
            SysNo::Fstat => "fstat",
            SysNo::Access => "access",
            SysNo::Getdents => "getdents64",
            SysNo::Mkdir => "mkdir",
            SysNo::Rmdir => "rmdir",
            SysNo::Unlink => "unlink",
            SysNo::Rename => "rename",
            SysNo::Symlink => "symlink",
            SysNo::Readlink => "readlink",
            SysNo::Truncate => "truncate",
            SysNo::Pipe2 => "pipe2",
            SysNo::FutexWait => "futex(WAIT)",
            SysNo::FutexWake => "futex(WAKE)",
            SysNo::Msgget => "msgget",
            SysNo::Msgsnd => "msgsnd",
            SysNo::Msgrcv => "msgrcv",
            SysNo::Semget => "semget",
            SysNo::Semop => "semop",
            SysNo::Shmget => "shmget",
            SysNo::Shmat => "shmat",
            SysNo::Shmdt => "shmdt",
            SysNo::Eventfd => "eventfd2",
            SysNo::Chmod => "chmod",
            SysNo::Fchmod => "fchmod",
            SysNo::Chown => "chown",
            SysNo::Setuid => "setuid",
            SysNo::Getuid => "getuid",
            SysNo::Capget => "capget",
            SysNo::Capset => "capset",
            SysNo::Umask => "umask",
            SysNo::Setgroups => "setgroups",
            SysNo::Prctl => "prctl",
            SysNo::Socket => "socket",
            SysNo::Bind => "bind",
            SysNo::Listen => "listen",
            SysNo::Accept => "accept4",
            SysNo::Connect => "connect",
            SysNo::Sendto => "sendto",
            SysNo::Recvfrom => "recvfrom",
            SysNo::ShutdownSock => "shutdown",
            SysNo::EpollCreate => "epoll_create1",
            SysNo::EpollWait => "epoll_wait",
        }
    }

    /// Categories this call belongs to (some calls belong to two, like
    /// chmod: filesystem + permissions).
    pub fn categories(self) -> &'static [Category] {
        use Category::*;
        match self {
            SysNo::Getpid
            | SysNo::SchedYield
            | SysNo::Clone
            | SysNo::Wait4
            | SysNo::SchedSetaffinity
            | SysNo::SchedGetparam
            | SysNo::Setpriority
            | SysNo::Nanosleep
            | SysNo::Getrusage => &[ProcessSched],
            SysNo::Kill => &[ProcessSched, Ipc],
            SysNo::Mmap
            | SysNo::Munmap
            | SysNo::Mprotect
            | SysNo::Madvise
            | SysNo::Brk
            | SysNo::Mremap
            | SysNo::Mlock
            | SysNo::Munlock
            | SysNo::Mincore => &[Memory],
            SysNo::Msync => &[Memory, FileIo],
            SysNo::Read
            | SysNo::Write
            | SysNo::Pread
            | SysNo::Pwrite
            | SysNo::Lseek
            | SysNo::Fsync
            | SysNo::Fdatasync
            | SysNo::Readv
            | SysNo::Writev => &[FileIo],
            SysNo::Fallocate => &[FileIo, Filesystem],
            SysNo::Open
            | SysNo::Close
            | SysNo::Stat
            | SysNo::Fstat
            | SysNo::Access
            | SysNo::Getdents
            | SysNo::Mkdir
            | SysNo::Rmdir
            | SysNo::Unlink
            | SysNo::Rename
            | SysNo::Symlink
            | SysNo::Readlink
            | SysNo::Truncate => &[Filesystem],
            SysNo::Pipe2
            | SysNo::FutexWait
            | SysNo::FutexWake
            | SysNo::Msgget
            | SysNo::Msgsnd
            | SysNo::Msgrcv
            | SysNo::Semget
            | SysNo::Semop
            | SysNo::Eventfd => &[Ipc],
            SysNo::Shmget | SysNo::Shmat | SysNo::Shmdt => &[Ipc, Memory],
            SysNo::Chmod | SysNo::Fchmod | SysNo::Chown => &[Filesystem, Permissions],
            SysNo::Setuid
            | SysNo::Getuid
            | SysNo::Capget
            | SysNo::Capset
            | SysNo::Umask
            | SysNo::Setgroups
            | SysNo::Prctl => &[Permissions],
            SysNo::Socket
            | SysNo::Bind
            | SysNo::Listen
            | SysNo::Accept
            | SysNo::Connect
            | SysNo::Sendto
            | SysNo::Recvfrom
            | SysNo::ShutdownSock
            | SysNo::EpollCreate
            | SysNo::EpollWait => &[Network],
        }
    }

    /// The primary category (first listed): the one category a call's
    /// latency is filed under by both
    /// [`AttributionTable`](crate::latency::AttributionTable) and
    /// [`KernelTelemetry`](crate::telemetry::KernelTelemetry).
    pub fn primary_category(self) -> Category {
        self.categories()[0]
    }
}

impl std::fmt::Display for SysNo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_list_is_complete_and_unique() {
        let set: HashSet<SysNo> = SysNo::ALL.iter().copied().collect();
        assert_eq!(set.len(), SysNo::ALL.len());
    }

    #[test]
    fn every_call_has_a_name_and_category() {
        for &no in &SysNo::ALL {
            assert!(!no.name().is_empty());
            assert!(!no.categories().is_empty());
        }
    }

    #[test]
    fn every_category_has_several_calls() {
        for cat in Category::ALL {
            let n = SysNo::ALL
                .iter()
                .filter(|no| no.categories().contains(&cat))
                .count();
            assert!(n >= 8, "category {cat} has only {n} calls");
        }
    }

    #[test]
    fn chmod_is_dual_categorized() {
        // The paper's example: chmod is both filesystem and permissions.
        let cats = SysNo::Chmod.categories();
        assert!(cats.contains(&Category::Filesystem));
        assert!(cats.contains(&Category::Permissions));
    }
}
