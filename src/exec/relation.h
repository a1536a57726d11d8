#ifndef WIMPI_EXEC_RELATION_H_
#define WIMPI_EXEC_RELATION_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/column.h"

namespace wimpi::exec {

// Row indices selected from a table or relation. Fits SF <= ~300.
using SelVec = std::vector<int32_t>;

// A fully materialized intermediate result: named, aligned columns.
// MonetDB-style column-at-a-time execution materializes every operator
// output; the work counters account for that traffic, which is exactly the
// behaviour the paper measured.
//
// A column is either owned (AddColumn) or borrowed (BorrowColumn): a
// whole-table scan hands out the table's own columns instead of copies, and
// its counters still charge the copy (DESIGN.md §3). Readers cannot tell
// the two apart. A borrowed column must outlive the relation, so a
// relation that borrows from a database's tables must not outlive the
// database, and a query's result never borrows.
class Relation {
 public:
  Relation() = default;

  // Non-copyable (columns can be large); movable.
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) = default;
  Relation& operator=(Relation&&) = default;

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0]->size();
  }

  void AddColumn(std::string name, std::unique_ptr<storage::Column> col) {
    names_.push_back(std::move(name));
    columns_.push_back(col.get());
    owned_.push_back(std::move(col));
  }
  // Adds `col` without copying it; it must outlive this relation.
  void BorrowColumn(std::string name, const storage::Column& col) {
    names_.push_back(std::move(name));
    columns_.push_back(&col);
    owned_.push_back(nullptr);
  }

  const std::string& name(int i) const { return names_[i]; }
  void SetName(int i, std::string name) { names_[i] = std::move(name); }
  const storage::Column& column(int i) const { return *columns_[i]; }

  int ColumnIndex(const std::string& name) const {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<int>(i);
    }
    WIMPI_CHECK(false) << "no column '" << name << "' in relation";
    return -1;
  }
  const storage::Column& column(const std::string& name) const {
    return *columns_[ColumnIndex(name)];
  }
  bool HasColumn(const std::string& name) const {
    for (const auto& n : names_) {
      if (n == name) return true;
    }
    return false;
  }

  // Transfers a column out (used when re-keying results). A borrowed
  // column comes out as an owned copy: values, dictionary and origin.
  std::unique_ptr<storage::Column> TakeColumn(int i) {
    if (owned_[i] == nullptr) {
      return std::make_unique<storage::Column>(*columns_[i]);
    }
    columns_[i] = nullptr;
    return std::move(owned_[i]);
  }

  // Heap bytes of the value arrays. A borrowed column counts what a copy
  // of it would hold.
  int64_t ValueBytes() const {
    int64_t b = 0;
    for (size_t i = 0; i < columns_.size(); ++i) {
      const storage::Column& c = *columns_[i];
      b += owned_[i] != nullptr ? c.ValueBytes()
                                : c.size() * storage::TypeWidth(c.type());
    }
    return b;
  }

 private:
  std::vector<std::string> names_;
  // columns_[i] reads column i; owned_[i] holds it, or is null when the
  // column is borrowed.
  std::vector<const storage::Column*> columns_;
  std::vector<std::unique_ptr<storage::Column>> owned_;
};

}  // namespace wimpi::exec

#endif  // WIMPI_EXEC_RELATION_H_
