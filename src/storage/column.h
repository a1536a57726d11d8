#ifndef WIMPI_STORAGE_COLUMN_H_
#define WIMPI_STORAGE_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "storage/dictionary.h"
#include "storage/types.h"

namespace wimpi::storage {

// A contiguous, typed, in-memory column. NULLs are not supported: TPC-H has
// no NULLs and MonetDB's TPC-H setup never produces them in base tables;
// outer-join absent matches are handled by the join operator itself.
//
// Physical representation by type:
//   kInt32/kDate/kString -> vector<int32_t> (string values are dictionary
//                           codes; the dictionary is shared, so replicated
//                           cluster tables don't duplicate it)
//   kInt64               -> vector<int64_t>
//   kFloat64             -> vector<double>
class Column {
 public:
  explicit Column(DataType type) : type_(type) {
    if (type == DataType::kString) dict_ = std::make_shared<Dictionary>();
  }
  Column(DataType type, std::shared_ptr<Dictionary> dict)
      : type_(type), dict_(std::move(dict)) {
    WIMPI_CHECK(type == DataType::kString);
  }

  DataType type() const { return type_; }
  int64_t size() const {
    switch (type_) {
      case DataType::kInt64:
        return static_cast<int64_t>(i64_.size());
      case DataType::kFloat64:
        return static_cast<int64_t>(f64_.size());
      default:
        return static_cast<int64_t>(i32_.size());
    }
  }

  // -- Typed appends (debug-checked against the column type) --
  void AppendInt32(int32_t v) {
    WIMPI_CHECK(type_ == DataType::kInt32 || type_ == DataType::kDate);
    i32_.push_back(v);
  }
  void AppendInt64(int64_t v) {
    WIMPI_CHECK(type_ == DataType::kInt64);
    i64_.push_back(v);
  }
  void AppendFloat64(double v) {
    WIMPI_CHECK(type_ == DataType::kFloat64);
    f64_.push_back(v);
  }
  void AppendString(std::string_view v) {
    WIMPI_CHECK(type_ == DataType::kString);
    i32_.push_back(dict_->GetOrAdd(v));
  }
  void AppendCode(int32_t code) {
    WIMPI_CHECK(type_ == DataType::kString);
    i32_.push_back(code);
  }

  // -- Raw data access for the vectorized operators --
  const int32_t* I32Data() const { return i32_.data(); }
  const int64_t* I64Data() const { return i64_.data(); }
  const double* F64Data() const { return f64_.data(); }
  std::vector<int32_t>& MutableI32() { return i32_; }
  std::vector<int64_t>& MutableI64() { return i64_; }
  std::vector<double>& MutableF64() { return f64_; }

  // String value at a row (resolves the dictionary code).
  std::string_view StringAt(int64_t row) const {
    return dict_->ValueAt(i32_[row]);
  }

  const std::shared_ptr<Dictionary>& dict() const { return dict_; }

  void Reserve(int64_t n) {
    switch (type_) {
      case DataType::kInt64:
        i64_.reserve(n);
        break;
      case DataType::kFloat64:
        f64_.reserve(n);
        break;
      default:
        i32_.reserve(n);
        break;
    }
  }

  // Sets the row count to `n` (new rows zeroed; a string column's new
  // rows hold code 0, to be overwritten). From empty, capacity is exactly
  // `n`: bulk loaders size a column once and fill it in place.
  void Resize(int64_t n) {
    switch (type_) {
      case DataType::kInt64:
        i64_.resize(n);
        break;
      case DataType::kFloat64:
        f64_.resize(n);
        break;
      default:
        i32_.resize(n);
        break;
    }
  }

  void ShrinkToFit();

  // Statistics origin tag (DESIGN.md §13): a process-unique id stamped by
  // stats::StatsRegistry on base-table columns when statistics are
  // collected, and propagated by Gather/GatherWithDefault/ConcatRelations
  // so a gathered intermediate still identifies which base column its
  // values came from. 0 = unknown (no stats). Purely observational: never
  // read by the operators themselves.
  uint32_t origin() const { return origin_; }
  void set_origin(uint32_t origin) { origin_ = origin; }

  // Heap bytes of the value array (excludes any shared dictionary).
  int64_t ValueBytes() const {
    return static_cast<int64_t>(i32_.capacity()) * sizeof(int32_t) +
           static_cast<int64_t>(i64_.capacity()) * sizeof(int64_t) +
           static_cast<int64_t>(f64_.capacity()) * sizeof(double);
  }

 private:
  DataType type_;
  std::vector<int32_t> i32_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::shared_ptr<Dictionary> dict_;
  uint32_t origin_ = 0;
};

}  // namespace wimpi::storage

#endif  // WIMPI_STORAGE_COLUMN_H_
