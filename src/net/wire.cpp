#include "net/wire.h"

namespace praft::net {

void CodecRegistry::add(std::type_index type, Codec codec) {
  const uint8_t fam = static_cast<uint8_t>(codec.family);
  auto [it, inserted] = by_type_.emplace(type, std::move(codec));
  PRAFT_CHECK_MSG(inserted, "duplicate codec for payload type");
  PRAFT_CHECK_MSG(by_family_[fam] == nullptr,
                  "duplicate codec for family byte");
  by_family_[fam] = &it->second;
}

CodecRegistry& codec_registry() {
  static CodecRegistry* reg = [] {
    auto* r = new CodecRegistry();
    install_builtin_codecs(*r);
    return r;
  }();
  return *reg;
}

}  // namespace praft::net
