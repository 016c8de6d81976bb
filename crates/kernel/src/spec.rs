//! Kernel specialization masks: the reachability axis of surface area.
//!
//! The paper shrinks surface area by *hardware partition*; KASR and
//! MultiK shrink it by *code reachability* — unloading kernel code the
//! workload never touches. A [`SpecMask`] is the kernel-side contract of
//! that axis: a syscall allowlist plus the set of reachable subsystem
//! [`Category`]s. An instance built from a mask
//!
//! * never spawns the background daemons of unreached subsystems
//!   (`daemons.rs` consults [`SpecMask::wants_daemon`]),
//! * never allocates the instance locks of unreached subsystems
//!   (`instance.rs` consults [`SpecMask::wants_group`]; gated groups
//!   alias one stub lock so every `LockId` stays valid), and
//! * terminates disallowed syscalls on a real `ENOSYS` errno path with
//!   `err.spec.*` coverage blocks (`dispatch.rs`).
//!
//! [`SpecMask::full`] is the unspecialized kernel: construction and
//! dispatch are bit-identical to a build without specialization, which
//! the property suite gates on.
//!
//! Profile *derivation* (corpus coverage → mask) lives in the
//! `ksa-spec` crate; this module only carries what the kernel itself
//! needs, keeping the dependency direction kernel ← spec.

use crate::category::Category;
use crate::syscalls::SysNo;

/// Words in the syscall bitmap (75 sysnos, rounded up).
const SYS_WORDS: usize = SysNo::ALL.len().div_ceil(64);

/// A syscall allowlist plus reachable-category set, as a `Copy` bitmask
/// small enough to live inside every config struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecMask {
    /// Allowed syscalls, bit-indexed by [`SysNo::index`].
    sys: [u64; SYS_WORDS],
    /// Reachable categories, bit-indexed by [`Category::index`].
    cats: u8,
}

impl SpecMask {
    /// The empty mask: nothing allowed, nothing reachable.
    pub fn empty() -> Self {
        Self {
            sys: [0; SYS_WORDS],
            cats: 0,
        }
    }

    /// The full mask: every syscall allowed, every category reachable —
    /// the unspecialized kernel.
    pub fn full() -> Self {
        let mut m = Self::empty();
        for &no in &SysNo::ALL {
            m.insert(no);
        }
        m
    }

    /// Allows `no` and marks *all* of its categories reachable (a call
    /// with a secondary category drags that subsystem's code in too).
    pub fn insert(&mut self, no: SysNo) {
        let i = no.index();
        self.sys[i / 64] |= 1 << (i % 64);
        for &c in no.categories() {
            self.cats |= 1 << c.index();
        }
    }

    /// Builder form of [`Self::insert`].
    pub fn allow(mut self, no: SysNo) -> Self {
        self.insert(no);
        self
    }

    /// Marks a category reachable without allowing any syscall (used
    /// when coverage proves a subsystem is entered indirectly).
    pub fn insert_cat(&mut self, cat: Category) {
        self.cats |= 1 << cat.index();
    }

    /// Whether `no` is inside the allowlist.
    pub fn allows(&self, no: SysNo) -> bool {
        let i = no.index();
        self.sys[i / 64] & (1 << (i % 64)) != 0
    }

    /// Whether `cat`'s subsystem is reachable.
    pub fn allows_cat(&self, cat: Category) -> bool {
        self.cats & (1 << cat.index()) != 0
    }

    /// Number of allowed syscalls.
    pub fn allowed_count(&self) -> usize {
        self.sys.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether this is the unspecialized (full) mask.
    pub fn is_full(&self) -> bool {
        *self == Self::full()
    }

    /// Allowed syscalls in stable [`SysNo::ALL`] order.
    pub fn allowed(&self) -> impl Iterator<Item = SysNo> + '_ {
        SysNo::ALL.iter().copied().filter(|&no| self.allows(no))
    }

    /// Reachable categories in stable [`Category::ALL`] order.
    pub fn categories(&self) -> impl Iterator<Item = Category> + '_ {
        Category::ALL
            .iter()
            .copied()
            .filter(|&c| self.allows_cat(c))
    }

    /// Whether the instance must allocate lock group `group` (a name
    /// from [`FOOTPRINT`] / [`INFRA_LOCK_GROUPS`]): infrastructure
    /// groups always, subsystem groups when any owning category is
    /// reachable.
    pub fn wants_group(&self, group: &str) -> bool {
        if INFRA_LOCK_GROUPS.contains(&group) {
            return true;
        }
        FOOTPRINT
            .iter()
            .any(|f| self.allows_cat(f.cat) && f.lock_groups.contains(&group))
    }

    /// Whether the instance must spawn daemon `daemon` (a
    /// `Process::label` name from [`FOOTPRINT`]).
    pub fn wants_daemon(&self, daemon: &str) -> bool {
        FOOTPRINT
            .iter()
            .any(|f| self.allows_cat(f.cat) && f.daemons.contains(&daemon))
    }
}

impl Default for SpecMask {
    /// Defaults to the unspecialized kernel.
    fn default() -> Self {
        Self::full()
    }
}

/// The construction-time footprint one category drags into an instance:
/// the daemons that service its subsystem and the instance lock groups
/// its handlers touch. Group names match the allocation sites in
/// `instance.rs`; daemon names match `Process::label` in `daemons.rs`.
#[derive(Debug, Clone, Copy)]
pub struct CatFootprint {
    /// The category this entry describes.
    pub cat: Category,
    /// Daemons that exist only to service this subsystem.
    pub daemons: &'static [&'static str],
    /// Instance lock groups this subsystem's handlers acquire.
    pub lock_groups: &'static [&'static str],
}

/// Lock groups every instance allocates regardless of specialization:
/// the allocator core (`zone`/`lru`/`slab_depot`) backs every handler
/// through the page/slab helpers, and `cgroup` backs tenancy accounting
/// on any resource-consuming call.
pub const INFRA_LOCK_GROUPS: [&str; 4] = ["zone", "lru", "slab_depot", "cgroup"];

/// Per-category footprint registry. One entry per [`Category::ALL`]
/// element, in the same order — the exhaustiveness test pins both, so an
/// eighth category cannot silently dodge specialization.
pub const FOOTPRINT: [CatFootprint; 7] = [
    CatFootprint {
        cat: Category::ProcessSched,
        daemons: &["load_balancer"],
        lock_groups: &["runqueue", "tasklist", "pidmap"],
    },
    CatFootprint {
        cat: Category::Memory,
        daemons: &["kswapd", "vmstat"],
        lock_groups: &["mmap_sem", "page_table"],
    },
    CatFootprint {
        cat: Category::FileIo,
        daemons: &["flusher"],
        lock_groups: &["journal", "ipc_obj"],
    },
    CatFootprint {
        cat: Category::Filesystem,
        daemons: &["flusher"],
        lock_groups: &["fdtable", "dcache", "inode_sb", "rename", "journal"],
    },
    CatFootprint {
        cat: Category::Ipc,
        daemons: &[],
        lock_groups: &[
            "mmap_sem",
            "page_table",
            "fdtable",
            "futex",
            "ipc_ids",
            "ipc_obj",
        ],
    },
    CatFootprint {
        cat: Category::Permissions,
        daemons: &[],
        lock_groups: &["tasklist", "inode_sb", "journal", "cred", "audit"],
    },
    CatFootprint {
        cat: Category::Network,
        daemons: &["napi"],
        lock_groups: &["fdtable", "sock_buckets", "nic_queue", "softirq"],
    },
];

/// Every gated lock group an instance allocates, in allocation order
/// (`KernelInstance::build`). The exhaustiveness test checks each is
/// owned by at least one category.
pub const GATED_LOCK_GROUPS: [&str; 18] = [
    "runqueue",
    "tasklist",
    "pidmap",
    "mmap_sem",
    "page_table",
    "fdtable",
    "dcache",
    "inode_sb",
    "rename",
    "journal",
    "futex",
    "ipc_ids",
    "ipc_obj",
    "cred",
    "audit",
    "sock_buckets",
    "nic_queue",
    "softirq",
];

/// Every daemon `spawn_daemons` knows, in spawn order.
pub const ALL_DAEMONS: [&str; 5] = ["flusher", "kswapd", "load_balancer", "vmstat", "napi"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_allows_everything() {
        let m = SpecMask::full();
        assert!(m.is_full());
        assert_eq!(m.allowed_count(), SysNo::ALL.len());
        for &no in &SysNo::ALL {
            assert!(m.allows(no));
        }
        for &c in &Category::ALL {
            assert!(m.allows_cat(c));
        }
        for g in GATED_LOCK_GROUPS {
            assert!(m.wants_group(g), "{g} gated out of the full mask");
        }
        for d in ALL_DAEMONS {
            assert!(m.wants_daemon(d), "{d} gated out of the full mask");
        }
    }

    #[test]
    fn empty_mask_keeps_only_infrastructure() {
        let m = SpecMask::empty();
        assert_eq!(m.allowed_count(), 0);
        for g in GATED_LOCK_GROUPS {
            assert!(!m.wants_group(g), "{g} survived the empty mask");
        }
        for g in INFRA_LOCK_GROUPS {
            assert!(m.wants_group(g), "{g} is infrastructure");
        }
        for d in ALL_DAEMONS {
            assert!(!m.wants_daemon(d), "{d} survived the empty mask");
        }
    }

    #[test]
    fn inserting_a_call_pulls_its_categories() {
        let m = SpecMask::empty().allow(SysNo::Shmat);
        assert!(m.allows(SysNo::Shmat));
        assert!(!m.allows(SysNo::Shmdt));
        // Shmat is Ipc with a Memory secondary: both subsystems come in.
        assert!(m.allows_cat(Category::Ipc));
        assert!(m.allows_cat(Category::Memory));
        assert!(!m.allows_cat(Category::Network));
        assert!(m.wants_daemon("kswapd"));
        assert!(!m.wants_daemon("napi"));
        assert!(m.wants_group("futex"));
        assert!(!m.wants_group("sock_buckets"));
    }
}
