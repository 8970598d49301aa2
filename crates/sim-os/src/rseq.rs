//! Virtual CPU (vCPU) IDs via restartable sequences.
//!
//! §4.1: platforms keep growing hyperthread counts (4× over five
//! generations), but a co-located WSC application only runs on its cpuset.
//! Populating a per-CPU cache for every *physical* CPU ID wastes memory, so
//! the kernel's rseq extension assigns each process a **dense, process-
//! private vCPU number space**: "if an application runs on two CPU cores,
//! virtual CPUs always expose IDs 0 and 1, irrespective of which physical
//! cores the application threads are scheduled on."
//!
//! [`VcpuRegistry`] implements that assignment discipline as a dense table
//! indexed by physical CPU id: the lookup on every malloc and free is one
//! indexed load, and the table grows to the highest CPU id seen (physical
//! ids are bounded by the platform's CPU count).

use wsc_sim_hw::topology::CpuId;

/// A dense virtual CPU identifier, private to one process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VcpuId(pub u32);

impl VcpuId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VcpuId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vCPU{}", self.0)
    }
}

/// Per-process physical-CPU → dense-vCPU mapping.
///
/// vCPU IDs are assigned in first-use order, so an application that mostly
/// runs few threads keeps its activity concentrated on low-numbered vCPUs —
/// the usage skew of Figure 9b.
///
/// # Example
///
/// ```
/// use wsc_sim_os::rseq::VcpuRegistry;
/// use wsc_sim_hw::topology::CpuId;
///
/// let mut reg = VcpuRegistry::new();
/// assert_eq!(reg.vcpu_of(CpuId(57)).0, 0); // first CPU seen gets vCPU 0
/// assert_eq!(reg.vcpu_of(CpuId(3)).0, 1);
/// assert_eq!(reg.vcpu_of(CpuId(57)).0, 0); // stable thereafter
/// ```
#[derive(Clone, Debug, Default)]
pub struct VcpuRegistry {
    /// `slots[cpu]` is the vCPU assigned to physical CPU `cpu`, if any.
    slots: Vec<Option<VcpuId>>,
    /// vCPUs assigned so far; the next assignment's id.
    assigned: u32,
}

impl VcpuRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the vCPU ID for a physical CPU, assigning the next dense ID
    /// on first use.
    pub fn vcpu_of(&mut self, cpu: CpuId) -> VcpuId {
        let i = cpu.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        let assigned = &mut self.assigned;
        *self.slots[i].get_or_insert_with(|| {
            let id = VcpuId(*assigned);
            *assigned += 1;
            id
        })
    }

    /// The vCPU ID for a physical CPU, if already assigned.
    pub fn get(&self, cpu: CpuId) -> Option<VcpuId> {
        self.slots.get(cpu.index()).copied().flatten()
    }

    /// Number of vCPUs assigned so far (= number of distinct physical CPUs
    /// the process has run on).
    pub fn num_vcpus(&self) -> usize {
        self.assigned as usize
    }
}

#[cfg(test)]
// Tests may unwrap: a panic IS the failure report here.
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn dense_first_use_assignment() {
        let mut reg = VcpuRegistry::new();
        let a = reg.vcpu_of(CpuId(100));
        let b = reg.vcpu_of(CpuId(7));
        let c = reg.vcpu_of(CpuId(55));
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(reg.num_vcpus(), 3);
    }

    #[test]
    fn mapping_is_stable() {
        let mut reg = VcpuRegistry::new();
        let first = reg.vcpu_of(CpuId(9));
        for _ in 0..10 {
            assert_eq!(reg.vcpu_of(CpuId(9)), first);
        }
        assert_eq!(reg.num_vcpus(), 1);
    }

    #[test]
    fn get_without_assign() {
        let mut reg = VcpuRegistry::new();
        assert_eq!(reg.get(CpuId(1)), None);
        reg.vcpu_of(CpuId(1));
        assert_eq!(reg.get(CpuId(1)), Some(VcpuId(0)));
    }

    #[test]
    fn sparse_large_first_id_gets_vcpu_0() {
        let mut reg = VcpuRegistry::new();
        assert_eq!(reg.num_vcpus(), 0);
        assert_eq!(reg.vcpu_of(CpuId(255)), VcpuId(0));
        assert_eq!(reg.num_vcpus(), 1);
        // Lower ids the table already covers are still unassigned.
        assert_eq!(reg.get(CpuId(0)), None);
        assert_eq!(reg.get(CpuId(254)), None);
        assert_eq!(reg.get(CpuId(256)), None, "beyond the table");
        assert_eq!(reg.vcpu_of(CpuId(4)), VcpuId(1));
        assert_eq!(reg.vcpu_of(CpuId(255)), VcpuId(0));
        assert_eq!(reg.get(CpuId(4)), Some(VcpuId(1)));
        assert_eq!(reg.num_vcpus(), 2);
    }

    #[test]
    fn two_core_app_uses_ids_0_and_1() {
        // The paper's example: an app on two cores sees vCPUs {0, 1} no
        // matter which physical cores it landed on.
        let mut reg = VcpuRegistry::new();
        let ids: Vec<u32> = [CpuId(250), CpuId(13)]
            .into_iter()
            .map(|c| reg.vcpu_of(c).0)
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
