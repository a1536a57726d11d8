#ifndef WIMPI_CLUSTER_PARTITION_H_
#define WIMPI_CLUSTER_PARTITION_H_

#include <memory>
#include <vector>

#include "storage/table.h"

namespace wimpi::cluster {

// The column the cluster partitions lineitem on, as the paper does.
inline constexpr const char* kPartitionKey = "l_orderkey";

// Hash-partitions `table` into `num_parts` tables on an int64 key column
// (the paper partitions lineitem on l_orderkey). Row order within each
// partition preserves source order; string columns share the source
// dictionaries, so partitioning does not duplicate dictionary storage.
std::vector<std::shared_ptr<storage::Table>> PartitionByKey(
    const storage::Table& table, const std::string& key_column,
    int num_parts);

}  // namespace wimpi::cluster

#endif  // WIMPI_CLUSTER_PARTITION_H_
