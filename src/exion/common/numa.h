/**
 * @file
 * Best-effort NUMA topology discovery.
 *
 * Reads the kernel's sysfs view (the per-node `cpulist` files under
 * `/sys/devices/system/node`) instead of linking libnuma, so the
 * serving stack can
 * round-robin shard worker threads across nodes where the information
 * exists and degrade to a warning everywhere else — the same
 * best-effort contract as `--pin-weights`. On non-Linux platforms
 * (or hosts without the sysfs tree) discovery returns empty and
 * callers skip pinning.
 */

#ifndef EXION_COMMON_NUMA_H_
#define EXION_COMMON_NUMA_H_

#include <string>
#include <vector>

namespace exion
{

/**
 * Parses a kernel cpulist string ("0-3,8,10-11") into ascending CPU
 * ids. Malformed fields are skipped; an unparseable string yields an
 * empty list.
 */
std::vector<int> parseCpuList(const std::string &text);

/**
 * CPU ids of every online NUMA node, ordered by node id. Empty when
 * the platform exposes no NUMA topology (non-Linux, or sysfs
 * missing); a single-entry result means one node — pinning across
 * nodes is then pointless and callers should say so rather than pin.
 */
std::vector<std::vector<int>> numaNodeCpus();

} // namespace exion

#endif // EXION_COMMON_NUMA_H_
