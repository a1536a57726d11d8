// Reference (naive) implementations of TPC-H Q12-Q22.
#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "common/date.h"
#include "common/strings.h"
#include "reference_util.h"

namespace wimpi::tpch_ref {

using wimpi::DateAddMonths;
using wimpi::ParseDate;
using wimpi::StartsWith;

RefResult RefQ12(const engine::Database& db) {
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = DateAddMonths(lo, 12) - 1;
  std::unordered_map<int64_t, std::string> order_priority;
  for (const auto& o : LoadOrders(db)) order_priority[o.orderkey] = o.priority;
  std::map<std::string, std::pair<double, double>> counts;  // high, low
  for (const auto& l : LoadLineitem(db)) {
    if (l.mode != "MAIL" && l.mode != "SHIP") continue;
    if (l.receipt < lo || l.receipt > hi) continue;
    if (!(l.commit < l.receipt && l.ship < l.commit)) continue;
    const std::string& p = order_priority[l.orderkey];
    auto& [high, low] = counts[l.mode];
    if (p == "1-URGENT" || p == "2-HIGH") {
      high += 1;
    } else {
      low += 1;
    }
  }
  RefResult out;
  for (const auto& [mode, c] : counts) {
    out.push_back({mode, c.first, c.second});
  }
  return out;
}

RefResult RefQ13(const engine::Database& db) {
  std::unordered_map<int32_t, int64_t> orders_per_cust;
  for (const auto& o : LoadOrders(db)) {
    if (RefLikeMatch(o.comment, "%special%requests%")) continue;
    ++orders_per_cust[o.custkey];
  }
  std::map<int64_t, int64_t> dist;
  for (const auto& c : LoadCustomer(db)) {
    auto it = orders_per_cust.find(c.custkey);
    ++dist[it == orders_per_cust.end() ? 0 : it->second];
  }
  std::vector<std::pair<int64_t, int64_t>> rows(dist.begin(), dist.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first > b.first;
  });
  RefResult out;
  for (const auto& [count, n] : rows) out.push_back({count, n});
  return out;
}

RefResult RefQ14(const engine::Database& db) {
  const int32_t lo = ParseDate("1995-09-01");
  const int32_t hi = DateAddMonths(lo, 1) - 1;
  std::unordered_map<int32_t, bool> promo;
  for (const auto& p : LoadPart(db)) {
    promo[p.partkey] = StartsWith(p.type, "PROMO");
  }
  double promo_rev = 0, total = 0;
  for (const auto& l : LoadLineitem(db)) {
    if (l.ship < lo || l.ship > hi) continue;
    const double rev = l.price * (1 - l.disc);
    total += rev;
    if (promo.at(l.partkey)) promo_rev += rev;
  }
  return {{total == 0 ? 0.0 : 100.0 * promo_rev / total}};
}

RefResult RefQ15(const engine::Database& db) {
  const int32_t lo = ParseDate("1996-01-01");
  const int32_t hi = DateAddMonths(lo, 3) - 1;
  std::unordered_map<int32_t, double> rev;
  for (const auto& l : LoadLineitem(db)) {
    if (l.ship >= lo && l.ship <= hi) {
      rev[l.suppkey] += l.price * (1 - l.disc);
    }
  }
  double best = 0;
  for (const auto& [k, v] : rev) best = std::max(best, v);
  struct Row {
    double rev;
    int32_t suppkey;
    std::string name, addr, phone;
  };
  std::vector<Row> rows;
  for (const auto& s : LoadSupplier(db)) {
    auto it = rev.find(s.suppkey);
    if (it != rev.end() && it->second >= best) {
      rows.push_back({it->second, s.suppkey, s.name, s.address, s.phone});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.suppkey < b.suppkey; });
  RefResult out;
  for (const auto& r : rows) {
    out.push_back({r.rev, static_cast<int64_t>(r.suppkey), r.name, r.addr,
                   r.phone});
  }
  return out;
}

RefResult RefQ16(const engine::Database& db) {
  static const std::set<int32_t> kSizes = {49, 14, 23, 45, 19, 3, 36, 9};
  std::unordered_set<int32_t> bad_supp;
  for (const auto& s : LoadSupplier(db)) {
    if (RefLikeMatch(s.comment, "%Customer%Complaints%")) {
      bad_supp.insert(s.suppkey);
    }
  }
  struct PartInfo {
    std::string brand, type;
    int32_t size;
  };
  std::unordered_map<int32_t, PartInfo> parts;
  for (const auto& p : LoadPart(db)) {
    if (p.brand != "Brand#45" && !RefLikeMatch(p.type, "MEDIUM POLISHED%") &&
        kSizes.count(p.size)) {
      parts[p.partkey] = {p.brand, p.type, p.size};
    }
  }
  std::map<std::tuple<std::string, std::string, int32_t>,
           std::set<int32_t>>
      supps;
  for (const auto& x : LoadPartsupp(db)) {
    if (bad_supp.count(x.suppkey)) continue;
    auto it = parts.find(x.partkey);
    if (it == parts.end()) continue;
    supps[{it->second.brand, it->second.type, it->second.size}].insert(
        x.suppkey);
  }
  struct Row {
    std::string brand, type;
    int32_t size;
    int64_t cnt;
  };
  std::vector<Row> rows;
  for (const auto& [k, v] : supps) {
    rows.push_back({std::get<0>(k), std::get<1>(k), std::get<2>(k),
                    static_cast<int64_t>(v.size())});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(b.cnt, a.brand, a.type, a.size) <
           std::tie(a.cnt, b.brand, b.type, b.size);
  });
  RefResult out;
  for (const auto& r : rows) {
    out.push_back({r.brand, r.type, static_cast<int64_t>(r.size), r.cnt});
  }
  return out;
}

RefResult RefQ17(const engine::Database& db) {
  std::unordered_set<int32_t> target;
  for (const auto& p : LoadPart(db)) {
    if (p.brand == "Brand#23" && p.container == "MED BOX") {
      target.insert(p.partkey);
    }
  }
  std::unordered_map<int32_t, std::pair<double, int64_t>> qty;  // sum, n
  const auto lineitems = LoadLineitem(db);
  for (const auto& l : lineitems) {
    if (!target.count(l.partkey)) continue;
    auto& [s, n] = qty[l.partkey];
    s += l.qty;
    ++n;
  }
  double total = 0;
  for (const auto& l : lineitems) {
    auto it = qty.find(l.partkey);
    if (it == qty.end()) continue;
    const double avg = it->second.first / static_cast<double>(it->second.second);
    if (l.qty < 0.2 * avg) total += l.price;
  }
  return {{total / 7.0}};
}

RefResult RefQ18(const engine::Database& db) {
  std::unordered_map<int64_t, double> qty;
  for (const auto& l : LoadLineitem(db)) qty[l.orderkey] += l.qty;
  std::unordered_map<int32_t, std::string> cust_name;
  for (const auto& c : LoadCustomer(db)) cust_name[c.custkey] = c.name;
  struct Row {
    std::string cname;
    int32_t custkey;
    int64_t okey;
    int32_t odate;
    double totalprice, sumqty;
  };
  std::vector<Row> rows;
  for (const auto& o : LoadOrders(db)) {
    auto it = qty.find(o.orderkey);
    if (it == qty.end() || it->second <= 300) continue;
    rows.push_back({cust_name[o.custkey], o.custkey, o.orderkey, o.orderdate,
                    o.totalprice, it->second});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.totalprice != b.totalprice) return a.totalprice > b.totalprice;
    return a.odate < b.odate;
  });
  if (rows.size() > 100) rows.resize(100);
  RefResult out;
  for (const auto& r : rows) {
    out.push_back({r.cname, static_cast<int64_t>(r.custkey), r.okey,
                   static_cast<int64_t>(r.odate), r.totalprice, r.sumqty});
  }
  return out;
}

RefResult RefQ19(const engine::Database& db) {
  std::unordered_map<int32_t, const PartRow*> parts;
  const auto part_rows = LoadPart(db);
  for (const auto& p : part_rows) parts[p.partkey] = &p;
  auto in = [](const std::string& v, std::initializer_list<const char*> set) {
    for (const char* s : set) {
      if (v == s) return true;
    }
    return false;
  };
  double rev = 0;
  for (const auto& l : LoadLineitem(db)) {
    if (l.instr != "DELIVER IN PERSON") continue;
    if (l.mode != "AIR" && l.mode != "AIR REG") continue;
    const PartRow& p = *parts.at(l.partkey);
    const bool b1 = p.brand == "Brand#12" &&
                    in(p.container, {"SM CASE", "SM BOX", "SM PACK", "SM PKG"}) &&
                    l.qty >= 1 && l.qty <= 11 && p.size >= 1 && p.size <= 5;
    const bool b2 = p.brand == "Brand#23" &&
                    in(p.container, {"MED BAG", "MED BOX", "MED PKG", "MED PACK"}) &&
                    l.qty >= 10 && l.qty <= 20 && p.size >= 1 && p.size <= 10;
    const bool b3 = p.brand == "Brand#34" &&
                    in(p.container, {"LG CASE", "LG BOX", "LG PACK", "LG PKG"}) &&
                    l.qty >= 20 && l.qty <= 30 && p.size >= 1 && p.size <= 15;
    if (b1 || b2 || b3) rev += l.price * (1 - l.disc);
  }
  return {{rev}};
}

RefResult RefQ20(const engine::Database& db) {
  const int32_t canada = RefNationKey(db, "CANADA");
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = DateAddMonths(lo, 12) - 1;
  std::unordered_set<int32_t> forest;
  for (const auto& p : LoadPart(db)) {
    if (RefLikeMatch(p.name, "forest%")) forest.insert(p.partkey);
  }
  std::unordered_map<int64_t, double> shipped;  // (part,supp) -> qty
  for (const auto& l : LoadLineitem(db)) {
    if (l.ship < lo || l.ship > hi || !forest.count(l.partkey)) continue;
    shipped[(static_cast<int64_t>(l.partkey) << 32) | l.suppkey] += l.qty;
  }
  std::unordered_set<int32_t> qualified;
  for (const auto& x : LoadPartsupp(db)) {
    auto it = shipped.find((static_cast<int64_t>(x.partkey) << 32) | x.suppkey);
    if (it == shipped.end()) continue;
    if (x.availqty > 0.5 * it->second) qualified.insert(x.suppkey);
  }
  struct Row {
    std::string name, addr;
  };
  std::vector<Row> rows;
  for (const auto& s : LoadSupplier(db)) {
    if (s.nationkey == canada && qualified.count(s.suppkey)) {
      rows.push_back({s.name, s.address});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.name < b.name; });
  RefResult out;
  for (const auto& r : rows) out.push_back({r.name, r.addr});
  return out;
}

RefResult RefQ21(const engine::Database& db) {
  const int32_t saudi = RefNationKey(db, "SAUDI ARABIA");
  std::unordered_map<int64_t, std::set<int32_t>> supp_all, supp_late;
  const auto lineitems = LoadLineitem(db);
  for (const auto& l : lineitems) {
    supp_all[l.orderkey].insert(l.suppkey);
    if (l.receipt > l.commit) supp_late[l.orderkey].insert(l.suppkey);
  }
  std::unordered_set<int64_t> f_orders;
  for (const auto& o : LoadOrders(db)) {
    if (o.status == "F") f_orders.insert(o.orderkey);
  }
  std::unordered_map<int32_t, std::string> saudi_supp;
  for (const auto& s : LoadSupplier(db)) {
    if (s.nationkey == saudi) saudi_supp[s.suppkey] = s.name;
  }
  std::map<std::string, int64_t> waits;
  for (const auto& l : lineitems) {
    if (l.receipt <= l.commit) continue;
    auto sit = saudi_supp.find(l.suppkey);
    if (sit == saudi_supp.end()) continue;
    if (!f_orders.count(l.orderkey)) continue;
    if (supp_all[l.orderkey].size() <= 1) continue;       // EXISTS other supp
    if (supp_late[l.orderkey].size() != 1) continue;      // NOT EXISTS other late
    ++waits[sit->second];
  }
  std::vector<std::pair<std::string, int64_t>> rows(waits.begin(),
                                                    waits.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (rows.size() > 100) rows.resize(100);
  RefResult out;
  for (const auto& [name, n] : rows) out.push_back({name, n});
  return out;
}

RefResult RefQ22(const engine::Database& db) {
  static const std::set<std::string> kCodes = {"13", "31", "23", "29",
                                               "30", "18", "17"};
  const auto customers = LoadCustomer(db);
  double sum = 0;
  int64_t n = 0;
  for (const auto& c : customers) {
    if (c.acctbal > 0 && kCodes.count(c.phone.substr(0, 2))) {
      sum += c.acctbal;
      ++n;
    }
  }
  const double avg = n == 0 ? 0 : sum / static_cast<double>(n);
  std::unordered_set<int32_t> has_orders;
  for (const auto& o : LoadOrders(db)) has_orders.insert(o.custkey);
  std::map<int32_t, std::pair<int64_t, double>> groups;
  for (const auto& c : customers) {
    if (!kCodes.count(c.phone.substr(0, 2))) continue;
    if (c.acctbal <= avg) continue;
    if (has_orders.count(c.custkey)) continue;
    auto& [cnt, total] = groups[c.nationkey + 10];
    ++cnt;
    total += c.acctbal;
  }
  RefResult out;
  for (const auto& [code, v] : groups) {
    out.push_back({static_cast<int64_t>(code), v.first, v.second});
  }
  return out;
}

}  // namespace wimpi::tpch_ref
