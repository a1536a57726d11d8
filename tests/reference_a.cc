// Reference (naive) implementations of TPC-H Q1-Q11.
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

using wimpi::Contains;
using wimpi::DateAddMonths;
using wimpi::DateYear;
using wimpi::ParseDate;
using wimpi::StartsWith;

RefResult RefQ1(const engine::Database& db) {
  struct Acc {
    double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0;
    int64_t n = 0;
  };
  const int32_t cutoff = ParseDate("1998-12-01") - 90;
  std::map<std::pair<std::string, std::string>, Acc> groups;
  for (const auto& l : LoadLineitem(db)) {
    if (l.ship > cutoff) continue;
    Acc& a = groups[{l.rf, l.ls}];
    a.qty += l.qty;
    a.base += l.price;
    a.disc_price += l.price * (1 - l.disc);
    a.charge += l.price * (1 - l.disc) * (1 + l.tax);
    a.disc += l.disc;
    ++a.n;
  }
  RefResult out;
  for (const auto& [k, a] : groups) {
    const double n = static_cast<double>(a.n);
    out.push_back({k.first, k.second, a.qty, a.base, a.disc_price, a.charge,
                   a.qty / n, a.base / n, a.disc / n, a.n});
  }
  return out;
}

RefResult RefQ2(const engine::Database& db) {
  const auto europe = RefRegionNations(db, "EUROPE");
  auto in_europe = [&](int32_t nk) {
    return std::find(europe.begin(), europe.end(), nk) != europe.end();
  };
  const auto suppliers = LoadSupplier(db);
  const auto parts = LoadPart(db);
  const auto ps = LoadPartsupp(db);
  const auto nations = LoadNation(db);

  std::unordered_map<int32_t, const SupplierRow*> supp_by_key;
  for (const auto& s : suppliers) supp_by_key[s.suppkey] = &s;
  std::unordered_map<int32_t, const PartRow*> part_by_key;
  for (const auto& p : parts) {
    if (p.size == 15 && RefLikeMatch(p.type, "%BRASS")) {
      part_by_key[p.partkey] = &p;
    }
  }
  std::unordered_map<int32_t, std::string> nation_name;
  for (const auto& n : nations) nation_name[n.nationkey] = n.name;

  // min European supplycost per qualifying part
  std::unordered_map<int32_t, double> min_cost;
  for (const auto& x : ps) {
    if (!part_by_key.count(x.partkey)) continue;
    const auto* s = supp_by_key.at(x.suppkey);
    if (!in_europe(s->nationkey)) continue;
    auto it = min_cost.find(x.partkey);
    if (it == min_cost.end() || x.supplycost < it->second) {
      min_cost[x.partkey] = x.supplycost;
    }
  }
  struct Row {
    double acctbal;
    std::string nname, sname;
    int32_t partkey;
    std::string mfgr, addr, phone, comment;
  };
  std::vector<Row> rows;
  for (const auto& x : ps) {
    auto pit = part_by_key.find(x.partkey);
    if (pit == part_by_key.end()) continue;
    const auto* s = supp_by_key.at(x.suppkey);
    if (!in_europe(s->nationkey)) continue;
    if (x.supplycost != min_cost.at(x.partkey)) continue;
    rows.push_back({s->acctbal, nation_name[s->nationkey], s->name, x.partkey,
                    pit->second->mfgr, s->address, s->phone, s->comment});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(b.acctbal, a.nname, a.sname, a.partkey) <
           std::tie(a.acctbal, b.nname, b.sname, b.partkey);
  });
  if (rows.size() > 100) rows.resize(100);
  RefResult out;
  for (const auto& r : rows) {
    out.push_back({r.nname, r.acctbal, r.sname, static_cast<int64_t>(r.partkey),
                   r.mfgr, r.addr, r.phone, r.comment});
  }
  return out;
}

RefResult RefQ3(const engine::Database& db) {
  const int32_t cutoff = ParseDate("1995-03-15");
  std::unordered_set<int32_t> building;
  for (const auto& c : LoadCustomer(db)) {
    if (c.mktsegment == "BUILDING") building.insert(c.custkey);
  }
  struct OrderInfo {
    int32_t date, ship;
  };
  std::unordered_map<int64_t, OrderInfo> orders;
  for (const auto& o : LoadOrders(db)) {
    if (o.orderdate < cutoff && building.count(o.custkey)) {
      orders[o.orderkey] = {o.orderdate, o.shippriority};
    }
  }
  std::map<int64_t, double> revenue;
  for (const auto& l : LoadLineitem(db)) {
    if (l.ship <= cutoff) continue;
    auto it = orders.find(l.orderkey);
    if (it == orders.end()) continue;
    revenue[l.orderkey] += l.price * (1 - l.disc);
  }
  struct Row {
    int64_t okey;
    double rev;
    int32_t date, ship;
  };
  std::vector<Row> rows;
  for (const auto& [k, r] : revenue) {
    rows.push_back({k, r, orders[k].date, orders[k].ship});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.rev != b.rev) return a.rev > b.rev;
    return a.date < b.date;
  });
  if (rows.size() > 10) rows.resize(10);
  RefResult out;
  for (const auto& r : rows) {
    out.push_back({r.okey, static_cast<int64_t>(r.date),
                   static_cast<int64_t>(r.ship), r.rev});
  }
  return out;
}

RefResult RefQ4(const engine::Database& db) {
  const int32_t lo = ParseDate("1993-07-01");
  const int32_t hi = DateAddMonths(lo, 3) - 1;
  std::unordered_set<int64_t> late_orders;
  for (const auto& l : LoadLineitem(db)) {
    if (l.commit < l.receipt) late_orders.insert(l.orderkey);
  }
  std::map<std::string, int64_t> counts;
  for (const auto& o : LoadOrders(db)) {
    if (o.orderdate >= lo && o.orderdate <= hi &&
        late_orders.count(o.orderkey)) {
      ++counts[o.priority];
    }
  }
  RefResult out;
  for (const auto& [k, v] : counts) out.push_back({k, v});
  return out;
}

RefResult RefQ5(const engine::Database& db) {
  const auto asia = RefRegionNations(db, "ASIA");
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = DateAddMonths(lo, 12) - 1;
  std::unordered_map<int32_t, int32_t> cust_nation;
  for (const auto& c : LoadCustomer(db)) cust_nation[c.custkey] = c.nationkey;
  std::unordered_map<int64_t, int32_t> order_cnation;
  for (const auto& o : LoadOrders(db)) {
    if (o.orderdate >= lo && o.orderdate <= hi) {
      order_cnation[o.orderkey] = cust_nation[o.custkey];
    }
  }
  std::unordered_map<int32_t, int32_t> supp_nation;
  for (const auto& s : LoadSupplier(db)) supp_nation[s.suppkey] = s.nationkey;
  auto in_asia = [&](int32_t nk) {
    return std::find(asia.begin(), asia.end(), nk) != asia.end();
  };
  std::map<int32_t, double> rev;
  for (const auto& l : LoadLineitem(db)) {
    auto it = order_cnation.find(l.orderkey);
    if (it == order_cnation.end()) continue;
    const int32_t snk = supp_nation[l.suppkey];
    if (snk != it->second || !in_asia(snk)) continue;
    rev[snk] += l.price * (1 - l.disc);
  }
  std::unordered_map<int32_t, std::string> nation_name;
  for (const auto& n : LoadNation(db)) nation_name[n.nationkey] = n.name;
  std::vector<std::pair<std::string, double>> rows;
  for (const auto& [nk, r] : rev) rows.push_back({nation_name[nk], r});
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  RefResult out;
  for (const auto& [n, r] : rows) out.push_back({n, r});
  return out;
}

RefResult RefQ6(const engine::Database& db) {
  const int32_t lo = ParseDate("1994-01-01");
  const int32_t hi = DateAddMonths(lo, 12) - 1;
  double rev = 0;
  for (const auto& l : LoadLineitem(db)) {
    if (l.ship >= lo && l.ship <= hi && l.disc >= 0.05 && l.disc <= 0.07 &&
        l.qty < 24) {
      rev += l.price * l.disc;
    }
  }
  return {{rev}};
}

RefResult RefQ7(const engine::Database& db) {
  const int32_t france = RefNationKey(db, "FRANCE");
  const int32_t germany = RefNationKey(db, "GERMANY");
  std::unordered_map<int32_t, int32_t> supp_nation, cust_nation;
  for (const auto& s : LoadSupplier(db)) supp_nation[s.suppkey] = s.nationkey;
  for (const auto& c : LoadCustomer(db)) cust_nation[c.custkey] = c.nationkey;
  std::unordered_map<int64_t, int32_t> order_cust;
  for (const auto& o : LoadOrders(db)) order_cust[o.orderkey] = o.custkey;

  std::unordered_map<int32_t, std::string> nation_name;
  for (const auto& n : LoadNation(db)) nation_name[n.nationkey] = n.name;

  std::map<std::tuple<std::string, std::string, int32_t>, double> rev;
  const int32_t lo = ParseDate("1995-01-01");
  const int32_t hi = ParseDate("1996-12-31");
  for (const auto& l : LoadLineitem(db)) {
    if (l.ship < lo || l.ship > hi) continue;
    const int32_t sn = supp_nation[l.suppkey];
    const int32_t cn = cust_nation[order_cust[l.orderkey]];
    const bool fr_de = sn == france && cn == germany;
    const bool de_fr = sn == germany && cn == france;
    if (!fr_de && !de_fr) continue;
    rev[{nation_name[sn], nation_name[cn], DateYear(l.ship)}] +=
        l.price * (1 - l.disc);
  }
  RefResult out;
  for (const auto& [k, v] : rev) {
    // Engine output order: cust_nation, supp_nation, l_year, revenue.
    out.push_back({std::get<1>(k), std::get<0>(k),
                   static_cast<int64_t>(std::get<2>(k)), v});
  }
  // Engine sorts by supp_nation, cust_nation, year.
  std::sort(out.begin(), out.end(), [](const RefRow& a, const RefRow& b) {
    return std::tie(std::get<std::string>(a[1]), std::get<std::string>(a[0]),
                    std::get<int64_t>(a[2])) <
           std::tie(std::get<std::string>(b[1]), std::get<std::string>(b[0]),
                    std::get<int64_t>(b[2]));
  });
  return out;
}

RefResult RefQ8(const engine::Database& db) {
  const auto america = RefRegionNations(db, "AMERICA");
  const int32_t brazil = RefNationKey(db, "BRAZIL");
  auto in_america = [&](int32_t nk) {
    return std::find(america.begin(), america.end(), nk) != america.end();
  };
  std::unordered_set<int32_t> steel_parts;
  for (const auto& p : LoadPart(db)) {
    if (p.type == "ECONOMY ANODIZED STEEL") steel_parts.insert(p.partkey);
  }
  std::unordered_map<int32_t, int32_t> cust_nation, supp_nation;
  for (const auto& c : LoadCustomer(db)) cust_nation[c.custkey] = c.nationkey;
  for (const auto& s : LoadSupplier(db)) supp_nation[s.suppkey] = s.nationkey;
  struct OInfo {
    int32_t custkey, date;
  };
  std::unordered_map<int64_t, OInfo> orders;
  const int32_t lo = ParseDate("1995-01-01");
  const int32_t hi = ParseDate("1996-12-31");
  for (const auto& o : LoadOrders(db)) {
    if (o.orderdate >= lo && o.orderdate <= hi) {
      orders[o.orderkey] = {o.custkey, o.orderdate};
    }
  }
  std::map<int32_t, std::pair<double, double>> by_year;  // brazil, total
  for (const auto& l : LoadLineitem(db)) {
    if (!steel_parts.count(l.partkey)) continue;
    auto it = orders.find(l.orderkey);
    if (it == orders.end()) continue;
    if (!in_america(cust_nation[it->second.custkey])) continue;
    const double volume = l.price * (1 - l.disc);
    auto& [br, tot] = by_year[DateYear(it->second.date)];
    tot += volume;
    if (supp_nation[l.suppkey] == brazil) br += volume;
  }
  RefResult out;
  for (const auto& [year, v] : by_year) {
    out.push_back({static_cast<int64_t>(year),
                   v.second == 0 ? 0.0 : v.first / v.second});
  }
  return out;
}

RefResult RefQ9(const engine::Database& db) {
  std::unordered_set<int32_t> green_parts;
  for (const auto& p : LoadPart(db)) {
    if (Contains(p.name, "green")) green_parts.insert(p.partkey);
  }
  std::unordered_map<int32_t, int32_t> supp_nation;
  for (const auto& s : LoadSupplier(db)) supp_nation[s.suppkey] = s.nationkey;
  std::unordered_map<int64_t, double> ps_cost;  // (partkey,suppkey) packed
  for (const auto& x : LoadPartsupp(db)) {
    ps_cost[(static_cast<int64_t>(x.partkey) << 32) | x.suppkey] =
        x.supplycost;
  }
  std::unordered_map<int64_t, int32_t> order_date;
  for (const auto& o : LoadOrders(db)) order_date[o.orderkey] = o.orderdate;
  std::unordered_map<int32_t, std::string> nation_name;
  for (const auto& n : LoadNation(db)) nation_name[n.nationkey] = n.name;

  std::map<std::pair<std::string, int32_t>, double> profit;
  for (const auto& l : LoadLineitem(db)) {
    if (!green_parts.count(l.partkey)) continue;
    const double cost =
        ps_cost.at((static_cast<int64_t>(l.partkey) << 32) | l.suppkey);
    const double amount = l.price * (1 - l.disc) - cost * l.qty;
    profit[{nation_name[supp_nation[l.suppkey]],
            DateYear(order_date[l.orderkey])}] += amount;
  }
  std::vector<std::tuple<std::string, int32_t, double>> rows;
  for (const auto& [k, v] : profit) rows.push_back({k.first, k.second, v});
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) return std::get<0>(a) < std::get<0>(b);
    return std::get<1>(a) > std::get<1>(b);
  });
  RefResult out;
  for (const auto& [n, y, v] : rows) {
    out.push_back({n, static_cast<int64_t>(y), v});
  }
  return out;
}

RefResult RefQ10(const engine::Database& db) {
  const int32_t lo = ParseDate("1993-10-01");
  const int32_t hi = DateAddMonths(lo, 3) - 1;
  std::unordered_map<int64_t, int32_t> order_cust;
  for (const auto& o : LoadOrders(db)) {
    if (o.orderdate >= lo && o.orderdate <= hi) {
      order_cust[o.orderkey] = o.custkey;
    }
  }
  std::unordered_map<int32_t, double> rev;
  for (const auto& l : LoadLineitem(db)) {
    if (l.rf != "R") continue;
    auto it = order_cust.find(l.orderkey);
    if (it == order_cust.end()) continue;
    rev[it->second] += l.price * (1 - l.disc);
  }
  std::unordered_map<int32_t, std::string> nation_name;
  for (const auto& n : LoadNation(db)) nation_name[n.nationkey] = n.name;
  struct Row {
    std::string nname;
    int32_t custkey;
    std::string cname;
    double revenue, acctbal;
    std::string phone, address, comment;
  };
  std::vector<Row> rows;
  for (const auto& c : LoadCustomer(db)) {
    auto it = rev.find(c.custkey);
    if (it == rev.end()) continue;
    rows.push_back({nation_name[c.nationkey], c.custkey, c.name, it->second,
                    c.acctbal, c.phone, c.address, c.comment});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.revenue != b.revenue) return a.revenue > b.revenue;
    return a.custkey < b.custkey;
  });
  if (rows.size() > 20) rows.resize(20);
  RefResult out;
  for (const auto& r : rows) {
    out.push_back({r.nname, static_cast<int64_t>(r.custkey), r.cname,
                   r.revenue, r.acctbal, r.phone, r.address, r.comment});
  }
  return out;
}

RefResult RefQ11(const engine::Database& db) {
  const int32_t germany = RefNationKey(db, "GERMANY");
  const double sf =
      static_cast<double>(db.table("supplier").num_rows()) / 10000.0;
  std::unordered_set<int32_t> german;
  for (const auto& s : LoadSupplier(db)) {
    if (s.nationkey == germany) german.insert(s.suppkey);
  }
  std::unordered_map<int32_t, double> value;
  double total = 0;
  for (const auto& x : LoadPartsupp(db)) {
    if (!german.count(x.suppkey)) continue;
    const double v = x.supplycost * x.availqty;
    value[x.partkey] += v;
    total += v;
  }
  const double threshold = total * 0.0001 / sf;
  std::vector<std::pair<int32_t, double>> rows;
  for (const auto& [k, v] : value) {
    if (v > threshold) rows.push_back({k, v});
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  RefResult out;
  for (const auto& [k, v] : rows) {
    out.push_back({static_cast<int64_t>(k), v});
  }
  return out;
}

}  // namespace wimpi::tpch_ref
